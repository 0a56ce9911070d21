import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dstsim import (
    DegenerateFieldError,
    FileFormatError,
    GridSpec,
    PROJECTORS,
    ScanRecords,
    TransverseWavefunction,
    apply_vortex_plate,
    make_mode,
    ModeSpec,
    normalize,
    pointer_amplitudes,
    read_records_csv,
    scan,
    scan_probability_maps,
    write_records_csv,
)
from dstsim import engine
from dstsim.engine import cell_rng
from conftest import edit_csv, random_field
from oracles import gauge_align, records_csv_reference, stream_v1_counts

STRONG = math.pi / 2
GRID_2X2 = GridSpec(2, 2, 1e-4)


def uniform_field(n=2, pitch=1e-4):
    grid = GridSpec(n, n, pitch)
    return normalize(TransverseWavefunction(grid, np.ones((n, n), complex)))


# records.csv of the uniform 2x2 field: the scan header, the column names, then
# the cells (0, 0), (1, 0), (0, 1), (1, 1), each value as the 16 hexadecimal
# digits of its 64 bits: 0.5, 0.125, 0.5625, 0.0625, 0.31250000000000006 twice
UNIFORM_2X2_HEADER = b"nx=2,ny=2,pitch=0.0001,theta=1.5707963267948966,budget=%d\r\n"
UNIFORM_2X2_PROBS = (b"3fe0000000000000,3fc0000000000000,3fe2000000000000,"
                     b"3fb0000000000000,3fd4000000000001,3fd4000000000001")
UNIFORM_2X2_NOISELESS = (UNIFORM_2X2_HEADER % 0 + b"w_plus,w_minus,w_0,w_1,w_L,w_R\r\n"
                         + b"%s\r\n" % UNIFORM_2X2_PROBS * 4)
UNIFORM_2X2_COUNTS_SEED0 = ((2, 0, 6, 1, 1, 6), (1, 2, 4, 0, 4, 7), (3, 4, 5, 0, 1, 1),
                            (7, 2, 8, 2, 3, 0))


def uniform_2x2_counts(value_format: bytes, before: bytes = b"") -> bytes:
    """The rows of the seed-0 counts, each count in ``value_format``, after ``before``."""
    return b"".join(before + b",".join(value_format % n for n in c) + b"\r\n"
                    for c in UNIFORM_2X2_COUNTS_SEED0)


UNIFORM_2X2_COLUMNS_SAMPLED = b"n_plus,n_minus,n_0,n_1,n_L,n_R\r\n"
UNIFORM_2X2_SAMPLED_SEED0 = (UNIFORM_2X2_HEADER % 10 + UNIFORM_2X2_COLUMNS_SAMPLED
                             + uniform_2x2_counts(b"%016x"))
# the same two scans in the earlier encodings, which are refused: the probabilities
# to 17 significant digits, then as float.hex writes them, and the counts in decimal
UNIFORM_2X2_DECIMAL = UNIFORM_2X2_NOISELESS.replace(
    UNIFORM_2X2_PROBS, b"0.5,0.125,0.5625,0.0625,0.31250000000000006,0.31250000000000006")
UNIFORM_2X2_FLOAT_HEX = UNIFORM_2X2_NOISELESS.replace(
    UNIFORM_2X2_PROBS, b"0x1.0000000000000p-1,0x1.0000000000000p-3,0x1.2000000000000p-1,"
                       b"0x1.0000000000000p-4,0x1.4000000000001p-2,0x1.4000000000001p-2")
UNIFORM_2X2_DECIMAL_COUNTS = (UNIFORM_2X2_HEADER % 10 + UNIFORM_2X2_COLUMNS_SAMPLED
                              + uniform_2x2_counts(b"%d"))


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
        g, ptilde = gauge_align(f.amps), abs(np.sum(f.amps))
        a0, a1 = pointer_amplitudes(f, STRONG)
        assert a1 / a0 == pytest.approx(g / (ptilde - g), abs=1e-12)

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

    def test_gauge_builds_no_field(self, grid_8, monkeypatch):
        # the gauged amplitudes go into the pointer formula as an array, not as a field
        f = random_field(grid_8, seed=5)
        s = complex(np.sum(f.amps))
        assert not (s.imag == 0.0 and s.real > 0.0)   # the gauge has to turn it
        built = []
        check = TransverseWavefunction.__post_init__

        def counted(self):
            built.append(self.grid)
            check(self)

        monkeypatch.setattr(TransverseWavefunction, "__post_init__", counted)
        scan_probability_maps(f, STRONG)
        assert built == []

    def test_unnormalized_rejected(self, grid_8):
        f = TransverseWavefunction(grid_8, np.full((8, 8), 0.5 + 0j))
        with pytest.raises(ValueError):
            pointer_amplitudes(f, STRONG)

    def test_zero_sum_field_degenerate(self):
        grid = GridSpec(2, 2, 1e-4)
        amps = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
        f = normalize(TransverseWavefunction(grid, amps))
        with pytest.raises(DegenerateFieldError, match=r"^amplitude sum is 0\.000e\+00; "
                                                       r"zero-momentum post-selection is impossible$"):
            pointer_amplitudes(f, STRONG)

    def test_general_theta_reduces_to_strong(self, gaussian_8):
        # at theta = pi/2: a0 = (ptilde - psi)/sqrt(N), a1 = psi/sqrt(N)
        g, ptilde = gauge_align(gaussian_8.amps), abs(np.sum(gaussian_8.amps))
        a0, a1 = pointer_amplitudes(gaussian_8, math.pi / 2)
        assert a0 == pytest.approx((ptilde - g) / 8, abs=1e-15)
        assert a1 == pytest.approx(g / 8, abs=1e-15)

    def test_weak_limit_no_information(self, gaussian_8):
        ptilde = abs(np.sum(gaussian_8.amps))
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


class TestSampledScan:
    """Photon sampling through :func:`scan`, read at cell (0, 0).

    There ``uniform_field(2)`` has the probabilities ``UNIFORM_2X2_CELL`` and
    ``circular_field()`` has ``CIRCULAR_CELL``.
    """

    def test_zero_budget(self):
        # budget 0 is the noiseless scan: the exact probabilities, not counts
        readout = scan(uniform_field(2), STRONG, 0, seed=1).readout
        assert readout.dtype == np.float64
        assert np.array_equal(readout, scan_probability_maps(uniform_field(2), STRONG))

    def test_impossible_outcome_never_sampled(self):
        for seed in range(20):
            counts = scan(circular_field(), STRONG, 10_000, seed).readout[:, 0, 0]
            assert counts[RIGHT] == 0

    def test_deterministic_per_seed_and_cell(self):
        # every cell of the uniform 5x5 field has the same probabilities
        a = scan(uniform_field(5), STRONG, 1000, seed=42).readout
        b = scan(uniform_field(5), STRONG, 1000, seed=42).readout
        c = scan(uniform_field(5), STRONG, 1000, seed=43).readout
        assert np.array_equal(a, b)
        assert not np.array_equal(a[:, 4, 3], a[:, 3, 4])
        assert not np.array_equal(a[:, 4, 3], c[:, 4, 3])

    def test_basis_ratio_uniform_field(self):
        # P(plus | +/- basis) = (1/2) / (5/8) = 0.8 for the uniform 2x2 field
        n_plus, n_minus = scan(uniform_field(2), STRONG, 10**6, seed=7).readout[:2, 0, 0]
        total = n_plus + n_minus
        ratio = n_plus / total
        sigma = math.sqrt(0.8 * 0.2 / total)
        assert abs(ratio - 0.8) < 3 * sigma

    def test_poisson_means(self):
        # pooled over seeds, each projector frequency matches its probability
        probs = UNIFORM_2X2_CELL
        budget = 10**5
        seeds = 100
        totals = sum(scan(uniform_field(2), STRONG, budget, seed).readout[:, 0, 0]
                     for seed in range(seeds))
        freq = totals / (seeds * budget)
        sigma = np.sqrt(probs * (1 - probs) / (seeds * budget))
        assert (np.abs(freq - probs) <= 5 * sigma).all()

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=-1, seed=0)

    def test_rejects_non_integer_seed(self):
        # int() would truncate seed 1.5 onto seed 1's streams
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=1000, seed=1.5)

    def test_rejects_non_integer_budget(self):
        # ScanRecords refuses such a budget, so a scan must not draw for it
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=1000.5, seed=1)
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=1e3, seed=1)

    def test_golden_counts_large_budget(self):
        # pins the large-mean Poisson and binomial paths of stream v1, which the
        # 10-photon golden CSV never reaches
        counts = stream_v1_counts(UNIFORM_2X2_CELL, 10**8, 7, 3, 4)
        assert counts == [50005344, 12502285, 56247354, 6252281, 31248610, 31243416]

    def test_golden_counts_of_the_cell_draw(self):
        # the program's own per-cell draw, which scan makes at every cell, gives
        # the same large-budget golden vector as the reference
        counts = engine._sample_cell(UNIFORM_2X2_CELL.tolist(), 10**8, cell_rng(7, 3, 4))
        assert counts == [50005344, 12502285, 56247354, 6252281, 31248610, 31243416]

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(7),
                                      np.uint64(2**64 - 1)], ids=repr)
    def test_numpy_integer_seed_draws_as_the_int(self, seed):
        # a numpy seed keys the same streams as the Python int of equal value
        records = scan(uniform_field(2), STRONG, photons_per_setting=1000, seed=seed)
        expected = scan(uniform_field(2), STRONG, photons_per_setting=1000, seed=int(seed))
        assert np.array_equal(records.readout, expected.readout)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_aliasing_seed(self, seed):
        # a stream is keyed by 64 seed bits: -1 masked to them would draw seed 2**64 - 1's
        with pytest.raises(ValueError):
            scan(uniform_field(2), STRONG, photons_per_setting=10, seed=seed)
        assert scan(uniform_field(2), STRONG, photons_per_setting=1000,
                    seed=2**64 - 1).readout.sum() > 0


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

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
    @pytest.mark.parametrize("cell", EDGE_CELLS)
    def test_numpy_integer_key_equals_the_int_key(self, cell, dtype):
        # a numpy uint32 index shifted left by 32 unconverted would lose the index
        ix, iy = cell
        seed = 2**64 - 1
        rng = cell_rng(np.uint64(seed), dtype(ix), dtype(iy))
        ref = np.random.Generator(np.random.Philox(key=(seed << 64) | (iy << 32) | ix))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("key", [
        # masked to 32 and 64 bits, these four drew the streams of (5, 0, 0),
        # (5, 2**32 - 1, 0), (2**64 - 1, 0, 0) and (1, 0, 0)
        (5, 2**32, 0), (5, -1, 0), (-1, 0, 0), (1.5, 0, 0),
        (2**64, 0, 0), (5, 0, 2**32), (5, 0.0, 0), (True, 0, 0), (5, False, 0), (5, 0, np.True_),
    ], ids=repr)
    def test_refuses_a_key_it_would_alias(self, key):
        with pytest.raises(ValueError):
            cell_rng(*key)

    @pytest.mark.parametrize("cell", EDGE_CELLS)
    def test_cell_draw_at_edge_cells_matches_reference(self, cell):
        # no scan in the suite reaches the 32-bit edges of the cell indices
        ix, iy = cell
        counts = engine._sample_cell(UNIFORM_2X2_CELL.tolist(), 10**8, cell_rng(3, ix, iy))
        assert counts == stream_v1_counts(UNIFORM_2X2_CELL, 10**8, 3, ix, iy)

    def test_cell_key_is_not_a_seed_sequence(self):
        rng = cell_rng(5, 3, 4)
        with pytest.raises(TypeError):
            rng.spawn(1)
        with pytest.raises(ValueError):
            np.random.MT19937(rng.bit_generator.seed_seq)

    def test_generators_of_one_key_draw_alike_however_interleaved(self):
        # every cell_rng starts from the one shared zero counter array
        alone = cell_rng(9, 2, 5).integers(0, 2**64, size=12, dtype=np.uint64).tolist()
        rngs = {"a": cell_rng(9, 2, 5), "b": cell_rng(9, 2, 5)}
        draws = {"a": [], "b": []}
        for name, n in (("a", 5), ("b", 1), ("b", 8), ("a", 7), ("b", 3)):
            draws[name] += rngs[name].integers(0, 2**64, size=n, dtype=np.uint64).tolist()
        assert draws["a"] == draws["b"] == alone

    def test_drawing_leaves_other_generators_unchanged(self):
        a, b, c = cell_rng(9, 2, 5), cell_rng(9, 2, 5), cell_rng(9, 3, 5)
        before_b, before_c = b.bit_generator.state, c.bit_generator.state
        a.poisson(1e7, size=100)
        assert a.bit_generator.state["state"]["counter"].any()
        np.testing.assert_equal(b.bit_generator.state, before_b)
        np.testing.assert_equal(c.bit_generator.state, before_c)

    def test_scan_leaves_the_shared_counter_zero_and_read_only(self, gaussian_8):
        scan(gaussian_8, STRONG, photons_per_setting=10**6, seed=4)
        assert not engine._ZERO_COUNTER.any()
        assert not engine._ZERO_COUNTER.flags.writeable


# budgets up to 2**61, the largest that scan accepts
@settings(max_examples=100, deadline=None, database=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 7), field_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**64 - 1), budget=st.sampled_from([1, 10**3, 10**8, 2**61]),
       theta=st.sampled_from([STRONG, 0.3]))
def test_scan_draws_stream_v1_at_every_cell(nx, ny, field_seed, seed, budget, theta):
    # each cell's counts are stream v1's draw from that cell's probabilities alone
    field = random_field(GridSpec(nx, ny, 1e-4), field_seed)
    counts = scan(field, theta, budget, seed).readout
    probs = scan_probability_maps(field, theta)   # what the scan sampled from
    for iy in range(ny):
        for ix in range(nx):
            assert counts[:, iy, ix].tolist() == stream_v1_counts(probs[:, iy, ix], budget,
                                                                  seed, ix, iy)


GRID_64 = GridSpec(64, 64, 125e-6)
WAIST_64 = GRID_64.nx * GRID_64.pitch / 8
# SHA-256 of scan(field, budget=1e8, seed=7).readout.tobytes() (int64, little-endian)
# on the 64x64 grid of the benchmark: a centred Gaussian, and the off-axis l=1
# vortex of the README
GOLDEN_1E8_SHA256 = {
    "gaussian": "15e84ee20af098795bd2c05d657803d89442a53c57745a34bbad2467d651b611",
    "vortex": "11636470d4e452cad20a565ddab6e28bbfa97e566beb338bc7a74b5d2cc31a84",
}


def golden_64_field(name):
    if name == "gaussian":
        return make_mode(ModeSpec("gaussian", waist=WAIST_64), GRID_64)
    off_axis = ModeSpec("gaussian", waist=WAIST_64,
                        center=(2 * GRID_64.pitch, 1 * GRID_64.pitch))
    return apply_vortex_plate(make_mode(off_axis, GRID_64), 1)


class TestScan:
    @pytest.mark.parametrize("name", sorted(GOLDEN_1E8_SHA256))
    def test_golden_counts_64x64_large_budget(self, name):
        # pins stream v1 at the benchmark's scale: the large-mean Poisson (PTRS)
        # and binomial (BTPE) samplers in every cell, in _sample_cell's draw order
        counts = scan(golden_64_field(name), STRONG, photons_per_setting=10**8, seed=7).readout
        assert counts.dtype == np.int64
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
        assert digest == GOLDEN_1E8_SHA256[name]

    def test_enumerates_cells_row_major(self):
        f = uniform_field(2)
        records = scan(f, STRONG)
        assert records.readout.shape == (6, 2, 2)
        assert records.readout.dtype == np.float64   # a noiseless scan holds probabilities

    def test_uniform_field_identical_probs(self):
        records = scan(uniform_field(4), STRONG)
        first = records.readout[:, :1, :1]
        assert records.readout == pytest.approx(np.broadcast_to(first, records.readout.shape),
                                                abs=1e-14)

    def test_gaussian_p1_peaks_at_center(self):
        grid = GridSpec(33, 33, 1e-4)
        f = make_mode(ModeSpec("gaussian", waist=4 * grid.pitch), grid)
        records = scan(f, STRONG)
        p1 = records.readout[PROJECTORS.index("1")]
        assert np.unravel_index(np.argmax(p1), p1.shape) == (16, 16)

    def test_probability_maps_match_records(self, gaussian_8):
        maps = scan_probability_maps(gaussian_8, STRONG)
        assert maps.shape == (6, 8, 8)
        assert np.array_equal(scan(gaussian_8, STRONG).readout, maps)

    def test_sampled_records_carry_budget(self, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=100, seed=1)
        assert records.photons_per_setting == 100
        assert records.readout.dtype == np.int64

    def test_records_are_read_only(self, gaussian_8):
        for records in (scan(gaussian_8), scan(gaussian_8, photons_per_setting=100, seed=1)):
            with pytest.raises(ValueError, match="read-only"):
                records.readout[0, 0, 0] = -1

    def test_records_keep_their_own_array(self):
        probs = np.zeros((6, 2, 2))
        records = ScanRecords(probs, GRID_2X2, STRONG)
        probs[0, 0, 0] = -1.0   # the caller's array stays writable, the records do not see it
        assert records.readout[0, 0, 0] == 0.0

    @pytest.mark.parametrize("budget", [True, False, np.True_])
    def test_rejects_bool_budget(self, gaussian_8, budget):
        # True would pass as budget 1 and write a records file that reads back refused
        with pytest.raises(ValueError, match="photons_per_setting must be an integer"):
            scan(gaussian_8, STRONG, photons_per_setting=budget)

    def test_rejects_bool_seed(self, gaussian_8):
        with pytest.raises(ValueError, match="seed must be an integer"):
            scan(gaussian_8, STRONG, photons_per_setting=10, seed=True)


def block_records(nx: int, ny: int, budget: int) -> ScanRecords:
    """Records of a random field on an ``nx`` by ``ny`` grid at theta 0.3, seed 2."""
    return scan(random_field(GridSpec(nx, ny, 1e-5), 4), 0.3, budget, seed=2)


# an edit of one row of records, and the refusal it meets in records of n cells
ROW_EDITS = pytest.mark.parametrize("edit, message", [
    # a comma and the digit before it swapped: a 15-digit field beside a 17-digit
    # one, in a row of the right width and the same digits in the same order
    (lambda row: row[:15] + row[16:17] + row[15:16] + row[17:], "{n} rows of 6 fields"),
    (lambda row: row[:20] + b"g" + row[21:], "Non-hexadecimal digit"),
    (lambda row: row[:-2] + b"\n", "{n} rows of 6 fields"),   # one LF row among CRLF rows
], ids=["comma-swapped", "non-hex-digit", "mixed-line-ends"])


class TestRecordsCsv:
    def test_round_trip_noiseless(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert back.readout.shape == records.readout.shape
        assert back.grid == gaussian_8.grid and back.theta == STRONG
        assert back.readout.dtype == np.float64
        assert back.photons_per_setting == 0
        assert np.array_equal(back.readout, records.readout)  # hexadecimal floats are exact

    def test_round_trip_sampled(self, tmp_path, gaussian_8):
        records = scan(gaussian_8, STRONG, photons_per_setting=1000, seed=5)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert np.array_equal(back.readout, records.readout)
        assert back.photons_per_setting == 1000

    def test_header_schema(self, tmp_path, gaussian_8):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, 0.3, photons_per_setting=7), path)
        header, columns = path.read_text().splitlines()[:2]
        assert header == "nx=8,ny=8,pitch=0.000125,theta=0.3,budget=7"
        assert columns == "n_plus,n_minus,n_0,n_1,n_L,n_R"   # the counts, no probabilities
        assert columns.split(",") == ["n_" + p for p in PROJECTORS]
        write_records_csv(scan(gaussian_8, 0.3), path)
        header, columns = path.read_text().splitlines()[:2]
        assert header == "nx=8,ny=8,pitch=0.000125,theta=0.3,budget=0"
        assert columns.split(",") == ["w_" + p for p in PROJECTORS]

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
        edit_csv(path, [0], 3, "")   # an empty n_1 on the first row
        with pytest.raises(FileFormatError):
            read_records_csv(path)

    def test_rejects_missing_header(self, tmp_path, gaussian_8):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG), path)
        lines = path.read_bytes().split(b"\r\n")
        for kept in (lines[1:], lines[2:], lines[:1], []):
            path.write_bytes(b"\r\n".join(kept))
            with pytest.raises(FileFormatError):
                read_records_csv(path)

    @pytest.mark.parametrize("budget", [0, 10])
    @pytest.mark.parametrize("old, new, count", [
        (b"\r\n", b"\n", -1),       # line feeds alone
        (b"\r\n", b"\r\r\n", 1),    # a stray carriage return is no line of its own
    ], ids=["lf-only", "header-cr-cr-lf"])
    def test_lines_end_at_line_feeds(self, tmp_path, gaussian_8, budget, old, new, count):
        records = scan(gaussian_8, STRONG, photons_per_setting=budget, seed=0)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        path.write_bytes(path.read_bytes().replace(old, new, count))
        back = read_records_csv(path)
        assert back.grid == records.grid and back.theta == records.theta
        assert back.photons_per_setting == budget
        assert back.readout.tobytes() == records.readout.tobytes()

    def test_golden_bytes_noiseless(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(scan(uniform_field(2), STRONG), path)
        assert path.read_bytes() == UNIFORM_2X2_NOISELESS

    def test_golden_bytes_sampled(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(scan(uniform_field(2), STRONG, photons_per_setting=10, seed=0), path)
        assert path.read_bytes() == UNIFORM_2X2_SAMPLED_SEED0

    def test_rejects_probabilities_beside_counts(self, tmp_path):
        # the earlier layout wrote a sampled scan's probabilities beside its counts
        path = tmp_path / "records.csv"
        path.write_bytes(
            UNIFORM_2X2_HEADER % 10
            + b"w_plus,w_minus,w_0,w_1,w_L,w_R,n_plus,n_minus,n_0,n_1,n_L,n_R\r\n"
            + uniform_2x2_counts(b"%016x", UNIFORM_2X2_PROBS + b","))
        with pytest.raises(FileFormatError, match="columns"):
            read_records_csv(path)

    @pytest.mark.parametrize("budget, rows, column, value, message", [
        (10, [3], 1, "ffffffffffffffff", "negative count"),            # -1
        (0, [3], 0, "bfe0000000000000", "negative probability"),       # -0.5
        (10, [-2], 4, "budget=0", "columns"),          # counts with a zero budget
        (0, [-2], 4, "budget=10", "columns"),          # a budget without count columns
        (0, [3], 2, "7ff8000000000000", "non-finite probability"),     # nan
        (0, [3], 2, "0.5", "64 rows of 6 fields of 16 hexadecimal"),   # a decimal value
        (0, [3], 2, "7ff0000000000000", "non-finite probability"),     # inf, an overflow
        (10, [3], 5, "2.0", "64 rows of 6 fields of 16 hexadecimal"),  # a decimal count
        (0, [3], 5, "0x0,0x0", "64 rows of 6 fields"),                 # an extra field
        (0, [-2], 1, "ny=7", "56 rows"),               # 64 rows for a grid of 56 cells
        (0, [-2], 1, "ny=16", "128 rows"),             # 64 rows for a grid of 128 cells
        (0, [-2], 3, "theta=0.0", "theta"),            # theta out of (0, pi/2]
        (0, [-2], 3, "theta=1.6", "theta"),
        (0, [-2], 3, "theta=nan", "theta"),
        (0, [-2], 2, "pitch=0.0", "pitch"),            # a pitch that is not positive
        (0, [-2], 2, "pitch=-0.000125", "pitch"),
        (0, [-2], 0, "nx=8.0", "int"),                 # a malformed header
        (0, [-2], 1, "ny", "expected the header"),
        (0, [-2], 4, "photons=0", "expected the header"),
        (0, [-2], 4, "budget=0,seed=1", "expected the header"),
        (0, [-1], 1, "w_minus ", "columns"),           # unexpected column names
        (10, [-1], 5, "", "columns"),
    ], ids=["negative-count", "negative-prob", "counts-zero-budget", "budget-no-counts",
            "nan-prob", "decimal-prob", "overflow-prob", "float-count", "extra-field",
            "rows-exceed-grid", "rows-short-of-grid", "theta-zero", "theta-above-half-pi",
            "theta-nan", "pitch-zero", "pitch-negative", "float-nx", "key-without-value",
            "unknown-key", "extra-key", "column-name", "column-missing"])
    def test_rejects_invalid_rows(self, tmp_path, gaussian_8, budget, rows, column, value,
                                  message):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG, photons_per_setting=budget, seed=0), path)
        read_records_csv(path)
        edit_csv(path, rows, column, value)
        with pytest.raises(FileFormatError, match=message):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "text", [UNIFORM_2X2_DECIMAL, UNIFORM_2X2_FLOAT_HEX, UNIFORM_2X2_DECIMAL_COUNTS],
        ids=["decimal", "float-hex", "decimal-counts"])
    def test_rejects_earlier_encodings(self, tmp_path, text):
        # their rows are not six fields of 16 hexadecimal digits
        path = tmp_path / "records.csv"
        path.write_bytes(text)
        with pytest.raises(FileFormatError, match="4 rows of 6 fields") as refused:
            read_records_csv(path)
        assert str(refused.value).startswith(f"{path}: ")
        assert "re-run measure" in str(refused.value)

    @pytest.mark.parametrize("budget", [0, 10])
    @ROW_EDITS
    def test_rejects_a_row_edit(self, tmp_path, gaussian_8, budget, edit, message):
        path = tmp_path / "records.csv"
        write_records_csv(scan(gaussian_8, STRONG, photons_per_setting=budget, seed=0), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = edit(lines[5])
        path.write_bytes(b"".join(lines))
        with pytest.raises(FileFormatError, match=message.format(n=64)):
            read_records_csv(path)

    @pytest.mark.parametrize("budget", [0, 10])
    @pytest.mark.parametrize("row", [512, 1199], ids=["second-block", "last-row"])
    @ROW_EDITS
    def test_rejects_a_row_edit_past_the_first_block(self, tmp_path, budget, row, edit,
                                                     message):
        # 1200 cells: rows 512 and 1199 open the second block and close the partial third
        path = tmp_path / "records.csv"
        write_records_csv(block_records(40, 30, budget), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2 + row] = edit(lines[2 + row])
        path.write_bytes(b"".join(lines))
        with pytest.raises(FileFormatError, match=message.format(n=1200)):
            read_records_csv(path)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 - 2**-53])
    def test_round_trip_extreme_probabilities(self, tmp_path, value):
        # zero, negative zero (no scan measures one, but the records accept it, and it
        # is the one value here with the sign bit set), the least subnormal, the least
        # normal and the greatest double below 1
        readout = np.full((6, 2, 2), 0.25)
        readout[3, 1, 0] = value
        path = tmp_path / "records.csv"
        write_records_csv(ScanRecords(readout, GRID_2X2, STRONG), path)
        assert path.read_bytes().count(b",%s," % struct.pack(">d", value).hex().encode()) == 1
        back = read_records_csv(path)
        assert back.readout.tobytes() == readout.tobytes()

    @pytest.mark.parametrize("budget", [0, 10**6], ids=["noiseless", "sampled"])
    def test_bytes_equal_the_reference(self, tmp_path, budget):
        # 851 cells: the rows cross the 512-row block boundary, and the last block is partial
        records = block_records(37, 23, budget)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_bytes() == records_csv_reference(records)

    @pytest.mark.parametrize("budget", [0, 10**6], ids=["noiseless", "sampled"])
    @pytest.mark.parametrize("nx, ny", [(32, 16), (27, 19), (32, 32)],
                             ids=["512-cells", "513-cells", "1024-cells"])
    def test_block_edges_write_the_reference_and_read_back(self, tmp_path, nx, ny, budget):
        # one whole block, one row past it, and two whole blocks
        records = block_records(nx, ny, budget)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_bytes() == records_csv_reference(records)
        assert read_records_csv(path).readout.tobytes() == records.readout.tobytes()

    @pytest.mark.parametrize("budget", [0, 10**6], ids=["noiseless", "sampled"])
    def test_lf_only_rows_read_back_across_blocks(self, tmp_path, budget):
        # rows of 102 bytes in two whole blocks and a partial third
        records = block_records(40, 30, budget)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        back = read_records_csv(path)
        assert back.grid == records.grid and back.photons_per_setting == budget
        assert back.readout.tobytes() == records.readout.tobytes()


# a 64-bit pattern without the sign bit: a probability or a count the records accept
# when it is finite; the integers lean to small values
WORDS_63 = st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=6, max_size=6),
                    min_size=4, max_size=4)


@settings(max_examples=200, deadline=None, database=None)
@given(words=WORDS_63, sampled=st.booleans())
def test_records_csv_round_trip_any_word(tmp_path_factory, words, sampled):
    readout = np.array(words, np.uint64).T.reshape(6, 2, 2).view(
        np.int64 if sampled else np.float64)
    assume(sampled or np.isfinite(readout).all())
    records = ScanRecords(readout, GRID_2X2, 1.0, 10 if sampled else 0)
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv(records, path)
    assert path.read_bytes() == records_csv_reference(records)
    assert read_records_csv(path).readout.tobytes() == readout.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 9), pitch=st.floats(1e-9, 1.0),
       theta=st.floats(0.0, STRONG, exclude_min=True), field_seed=st.integers(0, 2**16),
       budget=st.sampled_from([0, 1, 10**3, 10**8]), seed=st.integers(0, 2**64 - 1))
def test_records_csv_round_trip(tmp_path_factory, nx, ny, pitch, theta, field_seed, budget,
                                seed):
    records = scan(random_field(GridSpec(nx, ny, pitch), field_seed), theta, budget, seed)
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert back.grid == records.grid and back.theta == theta
    assert back.photons_per_setting == budget
    assert back.readout.dtype == records.readout.dtype == (np.int64 if budget else np.float64)
    assert back.readout.tobytes() == records.readout.tobytes()


class TestScanRecords:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((4, 2, 2)), GRID_2X2, STRONG)
        with pytest.raises(ValueError):
            ScanRecords(np.zeros((6, 2, 3)), GRID_2X2, STRONG)   # maps off the grid
        with pytest.raises(ValueError, match="shape"):
            ScanRecords(np.zeros((6, 2, 3), dtype=np.int64), GRID_2X2, STRONG, 10)

    def test_counts_and_budget_go_together(self):
        # the budget alone says what the readout holds: counts when it is > 0
        with pytest.raises(ValueError, match="counts must be integers"):
            ScanRecords(np.zeros((6, 2, 2)), GRID_2X2, STRONG, 10)   # probabilities, budget
        counts = np.zeros((6, 2, 2), dtype=np.int64)
        assert ScanRecords(counts, GRID_2X2, STRONG, 10).readout.dtype == np.int64
        with pytest.raises(ValueError, match="negative count"):
            ScanRecords(counts - 1, GRID_2X2, STRONG, 10)
        with pytest.raises(ValueError):
            ScanRecords(None, GRID_2X2, STRONG, 10)   # no readout at all

    @pytest.mark.parametrize("readout", [
        np.full((6, 2, 2), 0.25 + 1j),   # complex maps would invert to a complex field
        np.ones((6, 2, 2), bool),
    ], ids=["complex", "bool"])
    def test_rejects_non_real_readout(self, readout):
        with pytest.raises(ValueError, match=str(readout.dtype)):
            ScanRecords(readout, GRID_2X2, 1.0)

    @pytest.mark.parametrize("probs, message", [
        ([math.nan] * 6, "non-finite"),
        ([0.25, 0.25, math.inf, 0.25, 0.25, 0.25], "non-finite"),
        ([-0.1, -0.1, 0.3, 0.3, 0.3, 0.3], "negative probability"),
        ([0.3, -0.01, 0.3, 0.3, 0.3, 0.3], "negative probability"),
    ], ids=["nan", "inf", "negative-pair", "negative-entry"])
    def test_rejects_bad_probabilities(self, probs, message):
        # a noiseless readout of such a cell would invert to a meaningless field
        readout = np.full((6, 2, 2), 0.25)
        readout[:, 0, 1] = probs
        with pytest.raises(ValueError, match=message):
            ScanRecords(readout, GRID_2X2, STRONG)

    def test_rejects_non_finite_probability(self):
        probs = np.zeros((6, 2, 2))
        probs[1, 1, 0] = np.inf
        with pytest.raises(ValueError):
            ScanRecords(probs, GRID_2X2, STRONG)

    def test_keeps_a_read_only_array_it_is_handed(self):
        # a noiseless scan hands over its fresh maps read-only; the records check
        # them without a copy or a per-cell temporary
        readout = scan_probability_maps(random_field(GridSpec(128, 128, 1e-5), 8))
        readout.flags.writeable = False
        tracemalloc.start()
        try:
            records = ScanRecords(readout, GridSpec(128, 128, 1e-5), STRONG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * readout.nbytes
        assert np.shares_memory(records.readout, readout)

    def test_sampled_scan_holds_one_working_copy(self):
        # the counts fill one int64 readout row by row beside the probability
        # maps; measured 2.4 readouts, against 14 for a list per cell
        f = random_field(GridSpec(48, 32, 1e-5), 3)
        tracemalloc.start()
        try:
            records = scan(f, STRONG, photons_per_setting=10**8, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.readout.dtype == np.int64 and not records.readout.flags.writeable
        assert peak < 3 * records.readout.nbytes

    def test_probability_maps_fill_one_array(self):
        # the six maps are written one by one into the array returned, beside the two
        # pointer amplitudes: measured 2.33 readouts, against 2.67 for a stack of six
        f = random_field(GridSpec(256, 192, 1e-5), 5)
        tracemalloc.start()
        try:
            maps = scan_probability_maps(f, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert maps.shape == (6, 192, 256) and maps.dtype == np.float64
        assert peak < 2.5 * maps.nbytes

    def test_records_read_holds_the_file_and_one_readout(self, tmp_path):
        # the rows are checked in the buffer read, and their digits copied 512 rows at
        # a time into one block that is decoded into the readout the records keep;
        # measured the file plus 1.13 readouts
        records = scan(random_field(GridSpec(128, 128, 1e-5), 8))
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        tracemalloc.start()
        try:
            back = read_records_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.readout, records.readout)
        assert peak < path.stat().st_size + 1.5 * records.readout.nbytes

    def test_records_write_holds_one_row_block(self, tmp_path):
        # one block of 512 rows and one of their words, reused for every block:
        # measured 0.126 MiB at 128x128
        records = scan(random_field(GridSpec(128, 128, 1e-5), 8))
        tracemalloc.start()
        try:
            write_records_csv(records, tmp_path / "records.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_noiseless_scan_hands_over_its_maps(self, monkeypatch):
        built = []
        maps = engine.scan_probability_maps
        monkeypatch.setattr(engine, "scan_probability_maps",
                            lambda *args: built.append(maps(*args)) or built[-1])
        assert scan(uniform_field()).readout is built[0]

    def test_copies_a_writeable_array(self):
        readout = np.full((6, 2, 2), 0.25)
        records = ScanRecords(readout, GRID_2X2, STRONG)
        readout[0, 0, 0] = 0.5
        assert not records.readout.flags.writeable
        assert np.all(records.readout == 0.25)

    def test_scan_records_its_grid_and_theta(self, gaussian_8):
        for theta in (0.3, STRONG):
            for budget in (0, 10):
                records = scan(gaussian_8, theta, budget)
                assert records.grid == gaussian_8.grid and records.theta == theta

    def test_rejects_non_integer_budget(self, tmp_path, gaussian_8):
        with pytest.raises(ValueError):
            scan(gaussian_8, STRONG, photons_per_setting=1e3)
        records = scan(gaussian_8, STRONG, photons_per_setting=np.int64(1000), seed=5)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert back.photons_per_setting == 1000
        assert np.array_equal(back.readout, records.readout)
