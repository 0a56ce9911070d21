"""Acceptance suite: one test per criterion clause, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Criteria 3, 5 (sampled clause) and 8 are implemented exactly as
stated and are expected to fail: the per-cell reconstruction noise of this
protocol is sigma = sqrt(N / 4 B) per quadrature regardless of the field
(post-selection discards all but a ~|sum psi|^2/N fraction of photons, and
the inversion amplifies the survivors' counting noise by N / 2 ptilde), so
the stated photon budget of 1e6 per setting cannot reach the stated quality
floors on a 64x64 grid; pure LG modes additionally have an exactly zero
amplitude sum and cannot pass zero-momentum post-selection at all.  The
``TestSupplementary`` class demonstrates every failing clause passing at an
attainable scale of the same pipeline (more photons, or a coarser scan, or
a vortex state that post-selection can see).
"""

import math
import time

import numpy as np
import pytest

from dstsim import (
    GridSpec,
    ModeSpec,
    PropagationSpec,
    apply_object,
    apply_vortex_plate,
    gauge_fix,
    make_mode,
    normalize,
    pointer_amplitudes,
    propagate_forward,
    propagate_inverse,
    reconstruct_dst,
    reconstruct_dwt,
    reconstruct_object,
    scan,
    scan_probability_maps,
    score,
)
from dstsim import engine
from conftest import random_field, random_smooth_field
from oracles import fidelity, pearson, phase_winding, pointer_via_matrix_exponential

STRONG = math.pi / 2
LAM = 808e-9

GRID64 = GridSpec(64, 64, 125e-6)
# a perfectly centered LG mode sums to exactly zero by symmetry and is
# unmeasurable by this protocol, so the acceptance LG states sit a
# sub-cell offset away from the grid center
LG_OFFSET = (0.37 * GRID64.pitch, 0.23 * GRID64.pitch)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def gaussian64():
    return make_mode(ModeSpec("gaussian", waist=GRID64.nx * GRID64.pitch / 8), GRID64)


def lg64(oam):
    return make_mode(
        ModeSpec("lg", waist=GRID64.nx * GRID64.pitch / 8,
                 oam=oam, center=LG_OFFSET),
        GRID64,
    )


def sampled_r_square(field, budget, seed):
    records = scan(field, STRONG, photons_per_setting=budget, seed=seed)
    res = reconstruct_dst(records)
    return score(res.field, field).r_square


# ---------------------------------------------------------------------------
# criterion 1: exact noiseless identity
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_exact_dst_identity(self):
        fields = [("gaussian", gaussian64()), ("lg1", lg64(1)), ("lg2", lg64(2))]
        fields += [(f"smooth{s}", random_smooth_field(GRID64, seed=200 + s)) for s in range(5)]
        worst_err, worst_fid, worst_time = 0.0, 1.0, 0.0
        for name, f in fields:
            t0 = time.perf_counter()
            res = reconstruct_dst(scan(f, STRONG))
            dt = time.perf_counter() - t0
            gauged, _ = gauge_fix(f)
            err = float(np.max(np.abs(res.field.amps - gauged.amps)))
            fid = fidelity(gauged, res.field)
            worst_err = max(worst_err, err)
            worst_fid = min(worst_fid, fid)
            worst_time = max(worst_time, dt)
        ok = worst_err < 1e-9 and worst_fid >= 1 - 1e-10 and worst_time < 10.0
        report("criterion 1 (noiseless DST identity, 8 fields @ 64x64)", ok,
               f"max err {worst_err:.2e} (<1e-9), min fidelity 1-{1 - worst_fid:.2e} "
               f"(>=1-1e-10), max {worst_time:.2f}s/field (<10s)")


# ---------------------------------------------------------------------------
# criterion 2: closed form vs joint-state matrix-exponential oracle
# ---------------------------------------------------------------------------

class TestCriterion2:
    def test_brute_force_oracle_equivalence(self):
        worst = 0.0
        instances = 0
        for n in (2, 3):
            grid = GridSpec(n, n, 125e-6)
            for seed in range(10):
                f = random_field(grid, seed=1000 + 13 * seed + n)
                instances += 1
                a0, a1 = pointer_amplitudes(f, STRONG)
                for iy in range(n):
                    for ix in range(n):
                        o0, o1 = pointer_via_matrix_exponential(f.amps, (ix, iy), STRONG)
                        worst = max(worst, abs(a0[iy, ix] - o0), abs(a1[iy, ix] - o1))
        ok = worst < 1e-10
        report("criterion 2 (matrix-exponential oracle, 20 instances)", ok,
               f"max |closed form - oracle| = {worst:.2e} (<1e-10)")


# ---------------------------------------------------------------------------
# criterion 3: sampled R^2 floors and budget monotonicity
# ---------------------------------------------------------------------------

BUDGETS = (10**3, 10**4, 10**5, 10**6)
N_SEEDS = 20


@pytest.fixture(scope="module")
def c3_data():
    t0 = time.perf_counter()
    gauss = gaussian64()
    medians = {}
    for budget in BUDGETS:
        medians[budget] = float(np.median(
            [sampled_r_square(gauss, budget, seed) for seed in range(N_SEEDS)]
        ))
    lg = lg64(1)
    lg_median = float(np.median(
        [sampled_r_square(lg, 10**6, seed) for seed in range(N_SEEDS)]
    ))
    return {"medians": medians, "lg": lg_median, "seconds": time.perf_counter() - t0}


class TestCriterion3:
    def test_gaussian_r_square_floor(self, c3_data):
        med = c3_data["medians"][10**6]
        report("criterion 3a (gaussian median R^2 @ 1e6 photons, 64x64)", med >= 0.95,
               f"median R^2 = {med:.3f} (>=0.95); noise floor sqrt(N/4B)=0.032 "
               f"dominates the density at this budget")

    def test_lg_r_square_floor(self, c3_data):
        med = c3_data["lg"]
        report("criterion 3b (LG l=1 median R^2 @ 1e6 photons, 64x64)", med >= 0.90,
               f"median R^2 = {med:.3f} (>=0.90); an l=1 state's amplitude sum is "
               f"~1e-6, so post-selection passes almost no signal photons")

    def test_budget_monotonicity(self, c3_data):
        meds = [c3_data["medians"][b] for b in BUDGETS]
        ok = all(meds[i] <= meds[i + 1] for i in range(len(meds) - 1))
        report("criterion 3c (median R^2 non-decreasing in budget)", ok,
               " -> ".join(f"{m:.3f}" for m in meds))

    def test_runtime(self, c3_data):
        ok = c3_data["seconds"] < 300.0
        report("criterion 3d (runtime @ 64x64)", ok,
               f"{c3_data['seconds']:.1f}s (<300s)")


# ---------------------------------------------------------------------------
# criterion 4: strong-estimator exactness vs weak-estimator bias
# ---------------------------------------------------------------------------

class TestCriterion4:
    def test_dst_dwt_separation(self):
        f = gaussian64()
        gauged, _ = gauge_fix(f)
        records_strong = scan(f, STRONG)
        fid_dst = fidelity(gauged, reconstruct_dst(records_strong).field)
        fid_dwt_strong = fidelity(
            gauged, reconstruct_dwt(records_strong).field)
        records_weak = scan(f, 0.05)
        fid_dwt_weak = fidelity(
            gauged, reconstruct_dwt(records_weak).field)
        ok = fid_dwt_strong < fid_dwt_weak < fid_dst and fid_dst >= 1 - 1e-10
        report("criterion 4 (DWT bias ordering vs exact DST)", ok,
               f"DWT@pi/2 1-{1 - fid_dwt_strong:.2e} < DWT@0.05 1-{1 - fid_dwt_weak:.2e} "
               f"< DST 1-{1 - fid_dst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: vortex winding of the reconstructed LG l=1 phase map
# ---------------------------------------------------------------------------

LOOP_RADII = range(3, 9)


class TestCriterion5:
    def test_noiseless_winding(self):
        res = reconstruct_dst(scan(lg64(1), STRONG))
        windings = [phase_winding(res.phase_map, r) for r in LOOP_RADII]
        ok = all(abs(w - 1.0) < 1e-6 for w in windings)
        report("criterion 5a (noiseless LG l=1 winding on loops 3-8)", ok,
               "windings " + ", ".join(f"{w:.6f}" for w in windings))

    def test_sampled_winding(self):
        f = lg64(1)
        hits = total = 0
        for seed in range(N_SEEDS):
            records = scan(f, STRONG, photons_per_setting=10**6, seed=seed)
            res = reconstruct_dst(records)
            for r in LOOP_RADII:
                total += 1
                hits += int(round(phase_winding(res.phase_map, r)) == 1)
        frac = hits / total
        report("criterion 5b (winding on >=90% of loops @ 1e6 photons)", frac >= 0.9,
               f"{hits}/{total} loops = {frac:.0%}; the sampled records carry almost "
               f"no post-selected signal for a pure l=1 state")


# ---------------------------------------------------------------------------
# criterion 6: paraxial round trip at 128x128
# ---------------------------------------------------------------------------

class TestCriterion6:
    def test_round_trip(self):
        grid = GridSpec(128, 128, 3e-6)
        f = make_mode(ModeSpec("gaussian", waist=grid.nx * grid.pitch / 8), grid)
        t0 = time.perf_counter()
        errs = {}
        for pad in (2, 4):
            spec = PropagationSpec(LAM, 5e-3, "fresnel", pad_factor=pad)
            d = propagate_forward(f, spec)
            back = propagate_inverse(d, spec)
            errs[pad] = float(np.linalg.norm(back.amps - f.amps) / np.linalg.norm(f.amps))
        dt = time.perf_counter() - t0
        ok = errs[2] < 1e-2 and errs[4] < 1e-3 and dt < 5.0
        report("criterion 6 (paraxial round trip 128x128)", ok,
               f"rel err {errs[2]:.2e} @ 2x pad (<1e-2), {errs[4]:.2e} @ 4x pad "
               f"(<1e-3), {dt:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# criterion 7: spherical kernel converges to the paraxial one with distance
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_kernel_convergence(self):
        grid = GridSpec(128, 128, 3.5e-6)
        f = make_mode(ModeSpec("gaussian", waist=36 * grid.pitch), grid)
        rels = []
        for mult in (10, 20, 50, 100):
            dist = mult * grid.extent
            a = propagate_forward(f, PropagationSpec(LAM, dist, "feynman"))
            b = propagate_forward(f, PropagationSpec(LAM, dist, "fresnel"))
            rels.append(float(np.linalg.norm(a.amps - b.amps) / np.linalg.norm(b.amps)))
        ok = all(rels[i] > rels[i + 1] for i in range(len(rels) - 1))
        report("criterion 7 (kernel distance strictly decreasing over 10-100x extent)",
               ok, " -> ".join(f"{r:.2e}" for r in rels))


# ---------------------------------------------------------------------------
# criterion 8: end-to-end holography of a binary object through the
# measurement pipeline
# ---------------------------------------------------------------------------

HOLO_GRID = GridSpec(64, 64, 3e-6)
HOLO_SPEC = PropagationSpec(LAM, 2e-3, "fresnel", pad_factor=4)


def letter_mask():
    mask = np.zeros((64, 64))
    mask[16:48, 24:32] = 1.0   # upright stroke
    mask[16:24, 24:46] = 1.0   # top bar
    mask[30:38, 24:44] = 1.0   # middle bar
    return mask


def holography_pipeline(budget, seed, threshold):
    """Simulate -> measure -> back-propagate -> divide; return corr(|t|, mask)."""
    mask = letter_mask()
    illum = make_mode(ModeSpec("gaussian", waist=20 * HOLO_GRID.pitch), HOLO_GRID)
    detected = normalize(propagate_forward(apply_object(illum, mask.astype(complex)), HOLO_SPEC))
    records = scan(detected, STRONG, photons_per_setting=budget, seed=seed)
    measured = reconstruct_dst(records).field
    obj = reconstruct_object(measured, illum, HOLO_SPEC, threshold=threshold)
    v = obj.validity_mask
    return pearson(np.abs(obj.transmission.amps[v]), mask[v])


class TestCriterion8:
    def test_end_to_end_binary_object(self):
        noiseless = holography_pipeline(0, 0, 0.02)
        corr = holography_pipeline(10**6, 0, 0.02)
        report("criterion 8 (binary object correlation @ 1e6 photons, 64x64)",
               corr >= 0.9,
               f"corr = {corr:.3f} (>=0.9); noiseless pipeline ceiling {noiseless:.3f}, "
               f"measured field is ~N^2/2B = 8.4x noise power at this budget")


# ---------------------------------------------------------------------------
# criterion 9: sampled frequencies against exact probabilities
# ---------------------------------------------------------------------------

class TestCriterion9:
    def test_statistical_soundness(self):
        f = gaussian64()
        maps = scan_probability_maps(f, STRONG)
        rng = np.random.default_rng(321)
        cells = [(int(ix), int(iy)) for ix, iy in
                 zip(rng.integers(0, 64, 10), rng.integers(0, 64, 10))]
        budget = 10**5
        n_seeds = 100
        worst = 0.0
        for ix, iy in cells:
            probs = maps[:, iy, ix]
            # the per-cell draw of scan, without scanning the other 4095 cells
            totals = sum(np.array(engine._sample_cell(probs.tolist(), budget,
                                                      engine.cell_rng(seed, ix, iy)))
                         for seed in range(n_seeds))
            for p, total in zip(probs.tolist(), totals.tolist()):
                freq = total / (n_seeds * budget)
                sigma = math.sqrt(p * (1.0 - p) / (n_seeds * budget))
                z = abs(freq - p) / sigma if sigma > 0 else (0.0 if freq == p else math.inf)
                worst = max(worst, z)
        report("criterion 9 (empirical frequencies within 5 sigma, 10 cells x 100 seeds)",
               worst <= 5.0, f"worst |z| = {worst:.2f} (<=5)")


# ---------------------------------------------------------------------------
# supplementary demonstrations: each clause that fails above passes at an
# attainable scale of the same pipeline
# ---------------------------------------------------------------------------

class TestSupplementary:
    def test_gaussian_floor_at_higher_budget(self):
        med = float(np.median(
            [sampled_r_square(gaussian64(), 10**8, seed) for seed in range(N_SEEDS)]
        ))
        report("supplementary 3a' (gaussian R^2 @ 1e8 photons, 64x64)", med >= 0.95,
               f"median R^2 = {med:.3f} (>=0.95)")

    def test_gaussian_floor_at_coarser_scan(self):
        grid = GridSpec(24, 24, 125e-6)
        f = make_mode(ModeSpec("gaussian", waist=grid.nx * grid.pitch / 8), grid)
        med = float(np.median(
            [sampled_r_square(f, 4 * 10**6, seed) for seed in range(N_SEEDS)]
        ))
        report("supplementary 3a'' (gaussian R^2 @ 24x24 scan)", med >= 0.95,
               f"median R^2 = {med:.3f} (>=0.95)")

    def test_vortex_state_r_square(self):
        # the vortex-plate preparation on an off-axis beam has an O(1)
        # amplitude sum, so post-selection sees it; same l=1 phase structure
        f = apply_vortex_plate(
            make_mode(ModeSpec("gaussian", waist=GRID64.nx * GRID64.pitch / 8,
                               center=(2 * GRID64.pitch, 1 * GRID64.pitch)), GRID64), 1)
        med = float(np.median(
            [sampled_r_square(f, 10**8, seed) for seed in range(N_SEEDS)]
        ))
        report("supplementary 3b' (vortex state R^2 @ 1e8 photons)", med >= 0.90,
               f"median R^2 = {med:.3f} (>=0.90)")

    def test_vortex_winding_at_higher_budget(self):
        f = apply_vortex_plate(
            make_mode(ModeSpec("gaussian", waist=GRID64.nx * GRID64.pitch / 8,
                               center=(2 * GRID64.pitch, 1 * GRID64.pitch)), GRID64), 1)
        hits = total = 0
        for seed in range(10):
            records = scan(f, STRONG, photons_per_setting=10**8, seed=seed)
            res = reconstruct_dst(records)
            for r in LOOP_RADII:
                total += 1
                hits += int(round(phase_winding(res.phase_map, r)) == 1)
        frac = hits / total
        report("supplementary 5b' (vortex winding @ 1e8 photons)", frac >= 0.9,
               f"{hits}/{total} loops = {frac:.0%}")

    def test_holography_at_higher_budget(self):
        corr = holography_pipeline(10**10, 0, 0.05)
        report("supplementary 8' (binary object corr @ 1e10 photons)", corr >= 0.9,
               f"corr = {corr:.3f} (>=0.9)")
