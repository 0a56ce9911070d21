"""Closed-form pointer vs the full joint-state matrix-exponential oracle."""

import math

import numpy as np
import pytest

from dstsim import GridSpec, pointer_amplitudes
from conftest import random_field
from oracles import pointer_via_matrix_exponential


def assert_matches_oracle(f, theta):
    """Closed-form pointer of every cell against the oracle at that cell."""
    a0, a1 = pointer_amplitudes(f, theta)
    for iy in range(f.grid.ny):
        for ix in range(f.grid.nx):
            o0, o1 = pointer_via_matrix_exponential(f.amps, (ix, iy), theta)
            assert abs(a0[iy, ix] - o0) < 1e-10
            assert abs(a1[iy, ix] - o1) < 1e-10


def test_uniform_2x2_oracle_value():
    # independently derived expected pointer for the uniform field
    amps = np.full((2, 2), 0.5, dtype=complex)
    a0, a1 = pointer_via_matrix_exponential(amps, (0, 0), math.pi / 2)
    assert a0 == pytest.approx(0.75, abs=1e-12)
    assert a1 == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_closed_form_matches_oracle_strong(n, seed):
    grid = GridSpec(n, n, 1e-4)
    assert_matches_oracle(random_field(grid, seed=seed * 31 + n), math.pi / 2)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_closed_form_matches_oracle_general_theta(theta):
    assert_matches_oracle(random_field(GridSpec(3, 3, 1e-4), seed=17), theta)


@pytest.mark.parametrize("theta", [math.pi / 2, 0.3], ids=["strong", "0.3"])
@pytest.mark.parametrize("nx, ny", [(3, 2), (2, 3)])
def test_closed_form_matches_oracle_non_square(nx, ny, theta):
    # on a non-square grid an ix/iy transposition cannot go unnoticed
    assert_matches_oracle(random_field(GridSpec(nx, ny, 1e-4), seed=nx * 10 + ny), theta)


def test_oracle_rejects_zero_sum():
    amps = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex) / 2.0
    with pytest.raises(ValueError):
        pointer_via_matrix_exponential(amps, (0, 0), math.pi / 2)
