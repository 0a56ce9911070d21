"""Cell-wise strong pointer coupling, zero-momentum post-selection, and readout.

The measurement at one scan cell couples the field to a polarization
pointer prepared in |0> = (|H>+|V>)/sqrt(2) by the unitary
``exp(-i theta |cell><cell| x sigma_y)`` and then post-selects the field on
the flat zero-transverse-momentum state ``|p0> = sum_xy |x,y> / sqrt(N)``
with ``N = nx * ny``.  Because the coupling projector is idempotent the
matrix exponential collapses to a closed form, and the unnormalized
post-selected pointer is

    a0 = (ptilde - (1 - cos theta) * psi(cell)) / sqrt(N)
    a1 = sin(theta) * psi(cell) / sqrt(N)

where ``ptilde = sum psi(x, y)``.  The global phase is fixed beforehand so
that ptilde is real and positive; the quadrature-extraction formulas in
:mod:`dstsim.reconstruct` assume exactly that gauge.  At theta = pi/2 this
reduces to a0 = (ptilde - psi)/sqrt(N), a1 = psi/sqrt(N).
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateFieldError, FileFormatError
from .wavefield import TransverseWavefunction

_PSI_TILDE_MIN = 1e-12
#: The strong coupling angle, the default of every call that takes theta.
STRONG_THETA = math.pi / 2
#: Slack on theta = pi/2, the strong coupling, for an angle that went through text.
THETA_TOL = 1e-12


#: The six pointer projectors read out per cell, named by their records CSV
#: column suffixes, in the order of the first axis of :class:`ScanRecords` and
#: of the CSV columns: |+/-> = (|0> +/- |1>)/sqrt(2), |0>, |1>,
#: |L> = (|0> + i|1>)/sqrt(2) and |R> = (|0> - i|1>)/sqrt(2).  The two
#: projectors of each measurement basis are adjacent, so ``[0::2]`` and
#: ``[1::2]`` pair them up.
PROJECTORS = ("plus", "minus", "0", "1", "L", "R")


@dataclass(frozen=True)
class ScanRecords:
    """Readout of a full scan as arrays indexed ``[projector, iy, ix]``.

    ``probs[k]`` is the map of projector ``PROJECTORS[k]`` (the records CSV
    column order).  Probabilities are unnormalized by post-selection: each
    basis pair sums to the post-selection weight of the cell, not to one.
    ``counts`` has the same layout and is None exactly when the scan is
    noiseless (``photons_per_setting == 0``).
    """

    probs: np.ndarray
    counts: np.ndarray | None = None
    photons_per_setting: int = 0

    def __post_init__(self):
        probs, counts = self.probs, self.counts
        if probs.ndim != 3 or probs.shape[0] != len(PROJECTORS) or probs.size == 0:
            raise ValueError(f"probs must have shape (6, ny, nx), got {probs.shape}")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability")
        if (probs < 0).any():
            raise ValueError("negative probability")
        check_budget(self.photons_per_setting)
        if counts is None:
            if self.photons_per_setting > 0:
                raise ValueError(f"budget {self.photons_per_setting} but no counts")
            return
        if self.photons_per_setting == 0:
            raise ValueError("counts need a budget > 0")
        if counts.shape != probs.shape or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"counts must be integers of shape {probs.shape}")
        if (counts < 0).any():
            raise ValueError("negative count")


def gauge_fix(f: TransverseWavefunction) -> tuple[TransverseWavefunction, float]:
    """Rotate the global phase so the amplitude sum is real and positive.

    Returns the gauged field and ptilde = |sum psi|.  Raises
    :class:`DegenerateFieldError` when the sum vanishes, since such a field
    never passes zero-momentum post-selection.
    """
    s = f.amp_sum()
    mag = abs(s)
    if mag < _PSI_TILDE_MIN:
        raise DegenerateFieldError(
            f"amplitude sum is {mag:.3e}; zero-momentum post-selection is impossible"
        )
    if s.imag == 0.0 and s.real > 0.0:
        return f, mag
    return f.with_amps(f.amps * (mag / s)), mag


def pointer_amplitudes(
    f: TransverseWavefunction, theta: float = STRONG_THETA
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized post-selected pointer amplitudes ``(a0, a1)`` of every cell.

    Both are ``(ny, nx)`` complex arrays; element ``[iy, ix]`` is the pointer
    after coupling at angle ``theta`` at cell ``(ix, iy)`` and post-selection.
    Applies the ptilde-real-positive gauge to the field internally, so the
    result is invariant under any global phase on the input.
    """
    check_theta(theta)
    if abs(f.power() - 1.0) > 1e-9:
        raise ValueError("input field must be normalized (power within 1e-9 of 1)")
    g, ptilde = gauge_fix(f)
    root_n = math.sqrt(g.grid.ncells)
    a0 = (ptilde - (1.0 - math.cos(theta)) * g.amps) / root_n
    a1 = math.sin(theta) * g.amps / root_n
    return a0, a1


def _projector_probs(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The six projector probabilities of pointer amplitudes.

    Stacked on a new first axis in :data:`PROJECTORS` order.
    """
    return np.stack([
        np.abs(a0 + a1) ** 2 / 2.0,
        np.abs(a0 - a1) ** 2 / 2.0,
        np.abs(a0) ** 2,
        np.abs(a1) ** 2,
        np.abs(a0 - 1j * a1) ** 2 / 2.0,
        np.abs(a0 + 1j * a1) ** 2 / 2.0,
    ])


class _CellKey(ISeedSequence):
    """The two 64-bit Philox key words of one cell, handed to Philox as they are.

    A seed sequence that hashes nothing: ``Philox(_CellKey(words))`` takes
    ``words`` as its key with the counter at 0, without first building a
    ``SeedSequence`` from OS entropy as ``Philox(key=...)`` does.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a cell key is two uint64 words, not {n_words} x {dtype}")
        return self._words


def cell_rng(seed: int, ix: int, iy: int) -> np.random.Generator:
    """Counter-based stream for one scan cell, independent of execution order.

    Streams are keyed by (seed, iy, ix), so a full scan and a single-cell
    resample agree bit for bit and the scan may be parallelized over cells
    without changing results.  The stream is that of
    ``Philox(key=(seed << 64) | (iy << 32) | ix)`` (stream v1), keyed
    directly.  ``spawn()`` on the generator raises TypeError: a cell key is
    not a spawnable seed sequence.
    """
    words = np.array([((int(iy) & 0xFFFFFFFF) << 32) | (int(ix) & 0xFFFFFFFF),
                      int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_CellKey(words)))


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or other non-integer raises ValueError, never truncates."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_budget(photons_per_setting: int) -> None:
    """Raise ValueError unless ``photons_per_setting`` is an integer >= 0 (0: noiseless)."""
    if _integer("photons_per_setting", photons_per_setting) < 0:
        raise ValueError("photons_per_setting must be >= 0")


def check_theta(theta: float) -> None:
    """Raise ValueError unless the coupling angle ``theta`` is in (0, pi/2]."""
    if not 0.0 < theta <= STRONG_THETA + THETA_TOL:
        raise ValueError(f"theta must be in (0, pi/2], got {theta}")


def check_seed(seed: int) -> None:
    """:func:`cell_rng` keys a stream by 64 seed bits; reject seeds that would alias."""
    if not 0 <= _integer("seed", seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _sample_cell(
    probs: list[float], photons_per_setting: int, rng: np.random.Generator
) -> list[int]:
    """Counts for one cell's six probabilities, both in :data:`PROJECTORS` order."""
    poisson, binomial = rng.poisson, rng.binomial
    counts: list[int] = []
    for pa, pb in zip(probs[0::2], probs[1::2]):
        weight = pa + pb
        detected = int(poisson(photons_per_setting * weight)) if weight > 0 else 0
        na = int(binomial(detected, pa / weight)) if detected > 0 else 0
        counts += (na, detected - na)
    return counts


def sample_counts(
    probs: np.ndarray,
    photons_per_setting: int,
    seed: int,
    cell: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Photon counts for the three basis settings at one cell ``(ix, iy)``.

    ``probs`` holds the cell's six probabilities in :data:`PROJECTORS` order,
    e.g. ``records.probs[:, iy, ix]``, and the counts come back in the same
    order.  Each basis receives an independent ensemble of
    ``photons_per_setting`` photons; the number that survives post-selection
    is Poisson with mean ``photons_per_setting * (pair weight)`` and is split
    binomially between the two projectors of the basis.  Deterministic given
    (seed, cell), and equal to what :func:`scan` draws at that cell.  A seed
    outside ``[0, 2**64)`` or a cell index outside ``[0, 2**32)`` raises
    ValueError: :func:`cell_rng` would alias it onto another stream.  So do a
    cell that is not an ``(ix, iy)`` pair and a non-integer budget, seed or index.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (len(PROJECTORS),):
        raise ValueError(f"probs must have shape (6,), got {probs.shape}")
    check_budget(photons_per_setting)
    check_seed(seed)
    if len(cell) != 2 or not all(0 <= _integer("cell index", i) < 2**32 for i in cell):
        raise ValueError(f"cell must be an (ix, iy) pair of indices in [0, 2**32), got {cell}")
    if photons_per_setting == 0:
        return np.zeros(len(PROJECTORS), dtype=np.int64)
    return np.array(_sample_cell(probs.tolist(), photons_per_setting, cell_rng(seed, *cell)),
                    dtype=np.int64)


def scan_probability_maps(f: TransverseWavefunction, theta: float = STRONG_THETA) -> np.ndarray:
    """Exact probabilities of every projector at every cell.

    Returns a ``(6, ny, nx)`` array indexed ``[projector, iy, ix]`` in
    :data:`PROJECTORS` order: the ``probs`` of a :func:`scan`.
    """
    return _projector_probs(*pointer_amplitudes(f, theta))


def scan(
    f: TransverseWavefunction,
    theta: float = STRONG_THETA,
    photons_per_setting: int = 0,
    seed: int = 0,
) -> ScanRecords:
    """Measure every grid cell at coupling angle ``theta``.

    Each cell is measured on a fresh photon ensemble drawn from its own
    :func:`cell_rng` stream, so cells are statistically independent.  With
    ``photons_per_setting == 0`` the records carry exact probabilities only.
    """
    check_budget(photons_per_setting)
    check_seed(seed)
    probs = scan_probability_maps(f, theta)
    if photons_per_setting == 0:
        return ScanRecords(probs)
    nx = f.grid.nx
    cells = probs.reshape(len(PROJECTORS), -1).T.tolist()
    counts = np.array(
        [_sample_cell(p, photons_per_setting, cell_rng(seed, i % nx, i // nx))
         for i, p in enumerate(cells)], dtype=np.int64)
    return ScanRecords(probs, counts.T.reshape(probs.shape), photons_per_setting)


# ---------------------------------------------------------------------------
# Records CSV: one row per cell, row-major, CRLF line ends
# ---------------------------------------------------------------------------

_CSV_HEADER = ["ix", "iy", *("w_" + p for p in PROJECTORS), *("n_" + p for p in PROJECTORS),
               "budget"]
#: Six empty count fields, between w_R and the budget of a noiseless row.
_EMPTY_COUNTS = b"," * 7
#: Rows formatted per write, which bounds the writer's memory.
_ROW_BLOCK = 4096
_ROW_DTYPE = np.dtype([("ix", np.int64), ("iy", np.int64), ("w", np.float64, 6),
                       ("n", np.int64, 6), ("budget", np.int64)])
_NOISELESS_DTYPE = np.dtype([("ix", np.int64), ("iy", np.int64), ("w", np.float64, 6),
                             ("budget", np.int64)])
_NOISELESS_COLS = (0, 1, 2, 3, 4, 5, 6, 7, 14)


def write_records_csv(records: ScanRecords, path) -> None:
    """Write one row per cell, row-major; probabilities with 17 significant digits."""
    nk, ny, nx = records.probs.shape
    columns = [records.probs.reshape(nk, -1).T]
    counts_fmt = _EMPTY_COUNTS.decode()
    if records.counts is not None:
        columns.append(records.counts.reshape(nk, -1).T)
        counts_fmt = ",%d" * nk + ","
    fmt = "%d,%d" + ",%.17g" * nk + counts_fmt + f"{records.photons_per_setting}\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for start in range(0, ny * nx, _ROW_BLOCK):
            cells = np.arange(start, min(start + _ROW_BLOCK, ny * nx))
            block = np.empty((len(cells), 2 + nk * len(columns)), dtype=object)
            block[:, 1], block[:, 0] = np.divmod(cells, nx)
            for k, column in enumerate(columns):
                block[:, 2 + nk * k:2 + nk * (k + 1)] = column[cells]
            fh.write((fmt * len(cells)) % tuple(block.ravel()))


def read_records_csv(path) -> ScanRecords:
    """Read a records CSV, placing each row at its (ix, iy) cell.

    Raises :class:`FileFormatError` unless the rows cover an ``nx x ny``
    grid exactly once, every row has all fields with integer ix, iy, counts
    and budget, and the rows share one budget: 0 with empty count columns,
    or > 0 with counts on every row.  Negative or non-finite probabilities
    and negative counts are rejected too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n")
    if end < 0:
        raise FileFormatError(f"{path}: empty records file")
    header = raw[:end].rstrip(b"\r").decode("latin-1")
    if header.split(",") != _CSV_HEADER:
        raise FileFormatError(f"{path}: unexpected header {header!r}")
    if raw.find(b",", end) < 0:
        raise FileFormatError(f"{path}: no records")
    noiseless = _EMPTY_COUNTS in raw
    try:
        rows = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=1,
                          encoding="latin-1",
                          dtype=_NOISELESS_DTYPE if noiseless else _ROW_DTYPE,
                          usecols=_NOISELESS_COLS if noiseless else None)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    n = len(rows)
    fields = len(_CSV_HEADER)
    if b"\n\n" in raw or b"\n\r\n" in raw or raw.count(b",") != (fields - 1) * (n + 1):
        raise FileFormatError(f"{path}: expected {fields} fields on every row")
    if noiseless and raw.count(_EMPTY_COUNTS) != n:
        raise FileFormatError(f"{path}: count columns are empty on some rows only")

    ix, iy, budget = rows["ix"], rows["iy"], rows["budget"]
    if ix.min() < 0 or iy.min() < 0:
        raise FileFormatError(f"{path}: negative cell index")
    nx, ny = int(ix.max()) + 1, int(iy.max()) + 1
    if nx * ny != n:
        raise FileFormatError(f"{path}: {n} records do not cover the {nx}x{ny} grid once")
    seen = np.bincount(iy * nx + ix, minlength=n)
    if (seen > 1).any():
        dup = int(np.argmax(seen > 1))
        raise FileFormatError(f"{path}: duplicate record for cell {(dup % nx, dup // nx)}")
    if (budget != budget[0]).any():
        raise FileFormatError(f"{path}: budgets differ between rows")

    probs = np.empty((len(PROJECTORS), ny, nx))
    probs[:, iy, ix] = rows["w"].T
    counts = None
    if not noiseless:
        counts = np.empty(probs.shape, dtype=np.int64)
        counts[:, iy, ix] = rows["n"].T
    try:
        return ScanRecords(probs, counts, int(budget[0]))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
