import os
import sys

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

sys.path.insert(0, os.path.dirname(__file__))

from dstsim import GridSpec, ModeSpec, TransverseWavefunction, make_mode, normalize


@pytest.fixture
def grid_8() -> GridSpec:
    return GridSpec(8, 8, 125e-6)


@pytest.fixture
def gaussian_8(grid_8) -> TransverseWavefunction:
    return make_mode(ModeSpec("gaussian", waist=2 * grid_8.pitch), grid_8)


def random_field(grid: GridSpec, seed: int) -> TransverseWavefunction:
    """Unstructured random complex field with a non-degenerate amplitude sum."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(grid.ny, grid.nx)) + 1j * rng.normal(size=(grid.ny, grid.nx))
    f = normalize(TransverseWavefunction(grid, amps))
    if abs(np.sum(f.amps)) < 0.1:
        return random_field(grid, seed + 7919)
    return f


def random_smooth_field(grid: GridSpec, seed: int, corr_cells: float = 3.0) -> TransverseWavefunction:
    """Smooth random complex field with a comfortably nonzero amplitude sum."""
    rng = np.random.default_rng(seed)
    re = gaussian_filter(rng.normal(size=(grid.ny, grid.nx)), corr_cells)
    im = gaussian_filter(rng.normal(size=(grid.ny, grid.nx)), corr_cells)
    amps = re + 1j * im
    amps = amps + 1.5 * np.mean(np.abs(amps))  # bias the sum away from zero
    f = normalize(TransverseWavefunction(grid, amps))
    assert abs(np.sum(f.amps)) > 0.5
    return f


def edit_csv(path, rows, column, value):
    """Set one field of the given rows of a records CSV.

    Row 0 is the first cell's; -2 is the scan header and -1 the column names.
    """
    lines = path.read_text().splitlines()
    for row in rows:
        cells = lines[2 + row].split(",")
        cells[column] = value
        lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
