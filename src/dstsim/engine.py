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

import binascii
import math
from dataclasses import dataclass
from operator import index

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateFieldError, FileFormatError
from .wavefield import GridSpec, TransverseWavefunction, _gauge, is_integer

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


@dataclass(frozen=True, eq=False)
class ScanRecords:
    """Readout of a full scan of ``grid`` at coupling ``theta``: one array ``[projector, iy, ix]``.

    The records hold what the scan measured, and nothing else: ``readout[k]``
    is the map of projector ``PROJECTORS[k]``, and the budget says what it
    holds.  A noiseless scan (``photons_per_setting == 0``) measured the exact
    probabilities, unnormalized by post-selection (each basis pair sums to the
    post-selection weight of the cell, not to one).  A sampled scan measured
    integer photon counts.  The records hold the array read-only: one that is
    already read-only, C-contiguous and owns its data, as :func:`scan` hands
    over, is kept as it is, and anything else (a list, a writeable array, a
    view) is copied.  They carry the grid and the angle they were taken at,
    so their inversion needs nothing else.
    """

    readout: np.ndarray
    grid: GridSpec
    theta: float
    photons_per_setting: int = 0

    def __post_init__(self):
        check_theta(self.theta)
        check_budget(self.photons_per_setting)
        data = self.readout
        if not (type(data) is np.ndarray and not data.flags.writeable
                and data.flags.c_contiguous and data.flags.owndata):
            data = np.array(data, order="C")
        if data.dtype.kind not in "fiu":
            raise ValueError(f"readout must hold real numbers, got {data.dtype}")
        shape = (len(PROJECTORS), self.grid.ny, self.grid.nx)
        if data.shape != shape:
            raise ValueError(f"readout must have shape {shape} of the {self.grid.nx}x"
                             f"{self.grid.ny} grid, got {data.shape}")
        sampled = self.photons_per_setting > 0
        if sampled and not np.issubdtype(data.dtype, np.integer):
            raise ValueError(f"counts must be integers, got {data.dtype}")
        # min and max carry a NaN through, and allocate no per-cell array
        with np.errstate(invalid="ignore"):   # refused by name below
            lo, hi = data.min(), data.max()
        if not (sampled or np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("non-finite probability")
        if lo < 0:
            raise ValueError(f"negative {'count' if sampled else 'probability'}")
        data.flags.writeable = False
        object.__setattr__(self, "readout", data)


def pointer_amplitudes(
    f: TransverseWavefunction, theta: float = STRONG_THETA
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized post-selected pointer amplitudes ``(a0, a1)`` of every cell.

    Both are ``(ny, nx)`` complex arrays; element ``[iy, ix]`` is the pointer
    after coupling at angle ``theta`` at cell ``(ix, iy)`` and post-selection.
    Applies the ptilde-real-positive gauge to the field internally, so the
    result is invariant under any global phase on the input.  Raises
    :class:`DegenerateFieldError` when the amplitude sum vanishes, since such
    a field never passes zero-momentum post-selection.
    """
    check_theta(theta)
    if abs(f.power() - 1.0) > 1e-9:
        raise ValueError("input field must be normalized (power within 1e-9 of 1)")
    amps, ptilde = _gauge(f.amps)
    if ptilde < _PSI_TILDE_MIN:
        raise DegenerateFieldError(
            f"amplitude sum is {ptilde:.3e}; zero-momentum post-selection is impossible"
        )
    root_n = math.sqrt(f.grid.ncells)
    a0 = (ptilde - (1.0 - math.cos(theta)) * amps) / root_n
    a1 = math.sin(theta) * amps / root_n
    return a0, a1


class _CellKey(ISeedSequence):
    """The two 64-bit Philox key words of one cell, handed to Philox as they are.

    A seed sequence that hashes nothing: ``Philox(_CellKey(words))`` takes
    ``words`` as its key with the counter at 0, without first building a
    ``SeedSequence`` from OS entropy as ``Philox(key=...)`` does.
    ``generate_state(2, np.uint64)`` returns the pair of Python ints as it is,
    and Philox reads the two words by index, so no array is built for a key.
    Any other request raises ValueError.
    """

    __slots__ = ("_words",)

    def __init__(self, words: tuple[int, int]):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox passes the type np.uint64 itself, which spares a dtype conversion per cell
        if n_words == 2 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self._words
        raise ValueError(f"a cell key is two uint64 words, not {n_words} x {dtype}")


#: The starting counter of every :func:`cell_rng` stream, shared and read-only.
#: Philox copies a counter array as it is; its default, the integer 0, would be
#: converted into a new array on every call.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def cell_rng(seed: int, ix: int, iy: int) -> np.random.Generator:
    """Counter-based stream for one scan cell, independent of execution order.

    Streams are keyed by (seed, iy, ix): the counts :func:`scan` draws at
    cell ``(ix, iy)`` come from that cell's own stream and depend only on its
    probabilities, so the scan may be parallelized over cells without
    changing results.  The stream is that of
    ``Philox(key=(seed << 64) | (iy << 32) | ix)`` (stream v1), keyed
    directly: its two key words, ``(iy << 32) | ix`` and ``seed``, reach
    Philox as Python ints.  ``spawn()`` on the generator raises TypeError: a
    cell key is not a spawnable seed sequence.

    ``seed`` must be an integer in [0, 2**64) and ``ix``, ``iy`` integers in
    [0, 2**32); a numpy integer keys the stream of the int of equal value.
    Anything else, a bool or a float included, raises ValueError rather than
    being masked onto another cell's stream.
    """
    if bool not in (type(seed), type(ix), type(iy)):
        try:
            # a numpy integer becomes the int of equal value; a float raises TypeError
            s, x, y = index(seed), index(ix), index(iy)
        except TypeError:
            pass
        else:
            if 0 <= s < 2**64 and 0 <= x < 2**32 and 0 <= y < 2**32:
                key = _CellKey(((y << 32) | x, s))
                return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))
    raise ValueError("a cell key is an integer seed in [0, 2**64) and integer indices "
                     f"in [0, 2**32), got seed={seed!r}, ix={ix!r}, iy={iy!r}")


def check_budget(photons_per_setting: int) -> None:
    """Raise ValueError unless ``photons_per_setting`` is an integer in [0, 2**61]; 0: noiseless."""
    if not is_integer(photons_per_setting):
        raise ValueError(f"photons_per_setting must be an integer, got {photons_per_setting!r}")
    if photons_per_setting < 0:
        raise ValueError("photons_per_setting must be >= 0")
    # a basis of a unit-power field weighs at most 1 + 2/sqrt(N) + 2/N <= 2.5, so
    # its Poisson mean stays below numpy's limit of about 9.22e18
    if photons_per_setting > 2**61:
        raise ValueError(f"photons_per_setting must be at most 2**61, got {photons_per_setting}")


def check_theta(theta: float) -> None:
    """Raise ValueError unless the coupling angle ``theta`` is in (0, pi/2]."""
    if not 0.0 < theta <= STRONG_THETA + THETA_TOL:
        raise ValueError(f"theta must be in (0, pi/2], got {theta}")


def check_seed(seed: int) -> None:
    """:func:`cell_rng` keys a stream by 64 seed bits; reject seeds that would alias."""
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _sample_cell(
    probs: list[float], photons_per_setting: int, rng: np.random.Generator
) -> list[int]:
    """Counts for one cell's six probabilities, both in :data:`PROJECTORS` order."""
    poisson, binomial = rng.poisson, rng.binomial
    p0, p1, p2, p3, p4, p5 = probs
    counts: list[int] = []
    for pa, pb in ((p0, p1), (p2, p3), (p4, p5)):
        weight = pa + pb
        # scalar draws come back as Python ints
        detected = poisson(photons_per_setting * weight) if weight > 0 else 0
        na = binomial(detected, pa / weight) if detected > 0 else 0
        counts += (na, detected - na)
    return counts


def scan_probability_maps(f: TransverseWavefunction, theta: float = STRONG_THETA) -> np.ndarray:
    """Exact probabilities of every projector at every cell.

    Returns a ``(6, ny, nx)`` array indexed ``[projector, iy, ix]`` in
    :data:`PROJECTORS` order: the ``readout`` of a noiseless :func:`scan`.
    """
    a0, a1 = pointer_amplitudes(f, theta)
    # filled map by map, so that one complex temporary at a time lives beside the maps
    maps = np.empty((len(PROJECTORS), *a0.shape))
    np.abs(a0 + a1, out=maps[0])
    np.abs(a0 - a1, out=maps[1])
    np.abs(a0, out=maps[2])
    np.abs(a1, out=maps[3])
    np.abs(a0 - 1j * a1, out=maps[4])
    np.abs(a0 + 1j * a1, out=maps[5])
    np.square(maps, out=maps)
    maps[:2] /= 2.0
    maps[4:] /= 2.0
    return maps


def scan(
    f: TransverseWavefunction,
    theta: float = STRONG_THETA,
    photons_per_setting: int = 0,
    seed: int = 0,
) -> ScanRecords:
    """Measure every grid cell at coupling angle ``theta``.

    Each cell is measured on a fresh photon ensemble drawn from its own
    :func:`cell_rng` stream, so cells are statistically independent.  With
    ``photons_per_setting == 0`` the records hold the exact probabilities;
    otherwise they hold the counts, sampled from the probabilities that
    :func:`scan_probability_maps` returns.
    """
    check_budget(photons_per_setting)
    check_seed(seed)
    readout = scan_probability_maps(f, theta)
    if photons_per_setting > 0:
        # one row of cells at a time, so no per-cell list spans the grid
        probs, readout = readout, np.empty(readout.shape, dtype=np.int64)
        for iy in range(f.grid.ny):
            readout[:, iy].T[...] = [
                _sample_cell(p, photons_per_setting, cell_rng(seed, ix, iy))
                for ix, p in enumerate(probs[:, iy].T.tolist())]
    readout.flags.writeable = False   # fresh and C-ordered: the records keep it uncopied
    return ScanRecords(readout, f.grid, theta, photons_per_setting)


# ---------------------------------------------------------------------------
# Records CSV: the scan header, the column names, one row per cell; CRLF line ends
# ---------------------------------------------------------------------------

#: The keys of the header line, which states the scan once: ``nx=64,ny=64,...``.
_HEADER_KEYS = ("nx", "ny", "pitch", "theta", "budget")
#: The column names and dtype of the probabilities of a noiseless scan (``False``)
#: and of the counts of a sampled one (``True``).
_COLUMNS = {False: (["w_" + p for p in PROJECTORS], np.dtype(np.float64)),
            True: (["n_" + p for p in PROJECTORS], np.dtype(np.int64))}
#: Rows formatted or parsed at a time, which bounds the memory beside the readout.
_ROW_BLOCK = 512
#: A row as written: six values of 16 hexadecimal digits, each ended by a comma or CRLF.
_ROW = b",".join([b"0" * 16] * len(PROJECTORS)) + b"\r\n"


def _digits(buf, m: int, width: int, offset: int = 0) -> np.ndarray:
    """The ``(m, 6)`` view of the values in ``m`` rows of ``width`` bytes from ``buf[offset]``.

    Each ``V16`` item is one value's 16 digits, which move to and from :mod:`binascii` whole.
    """
    return np.ndarray((m, len(PROJECTORS)), "V16", buf, offset, (width, 17))


def write_records_csv(records: ScanRecords, path) -> None:
    """Write the header, the column names, then one row per cell in row-major order.

    The header states ``nx``, ``ny``, the pitch (m), theta and the budget,
    floats as ``repr``.  A row holds the cell's six probabilities (float64)
    when the scan is noiseless, or its six counts (int64) when it is sampled,
    each as the 16 lowercase hexadecimal digits of its 64 bits, most
    significant first: ``3fe0000000000000`` is 0.5, ``0000000000000007`` is 7.
    So every row is 103 bytes.  One block of 512 rows, its separators set once,
    and one block of big-endian words serve every 512 cells: the words' digits,
    from :func:`binascii.hexlify`, move into the rows as one 16-byte item each.
    """
    grid = records.grid
    values = (grid.nx, grid.ny, repr(float(grid.pitch)), repr(float(records.theta)),
              records.photons_per_setting)
    header = ",".join(f"{k}={v}" for k, v in zip(_HEADER_KEYS, values))
    names, dtype = _COLUMNS[records.photons_per_setting > 0]
    cells = records.readout.reshape(len(PROJECTORS), -1).T
    rows = np.tile(np.frombuffer(_ROW, np.uint8), (min(_ROW_BLOCK, grid.ncells), 1))
    digits = _digits(rows, len(rows), len(_ROW))
    words = np.empty(digits.shape, dtype.newbyteorder(">"))
    with open(path, "wb") as fh:
        fh.write(f"{header}\r\n{','.join(names)}\r\n".encode())
        for start in range(0, grid.ncells, _ROW_BLOCK):
            m = min(_ROW_BLOCK, grid.ncells - start)
            words[:m] = cells[start:start + m]
            digits[:m] = np.frombuffer(binascii.hexlify(words[:m]), "V16").reshape(m, -1)
            fh.write(rows[:m])


def read_records_csv(path) -> ScanRecords:
    """Read a records CSV that :func:`write_records_csv` wrote.

    The rows must all end in CRLF, as written, or all in LF.  Raises
    :class:`FileFormatError` on a missing or malformed header, column names
    other than the probabilities' for budget 0 or the counts' for a budget
    > 0, a body other than ``nx * ny`` rows of six fields of 16 hexadecimal
    digits (records in an earlier encoding included, decimal or ``float.hex``,
    which are to be written again by ``measure``), and anything
    :class:`ScanRecords` refuses: a grid or theta out of range, a negative or
    non-finite probability or a negative count.  The separators are checked in
    the buffer read; then the digits of 512 rows at a time, one 16-byte item per
    value, are copied into one block for :func:`binascii.unhexlify`.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    # the header and the column names end at the first two line feeds, as in
    # text.split(b"\n", 2); the rows are parsed in place, after them
    end_header = text.find(b"\n")
    end_names = text.find(b"\n", end_header + 1)   # also -1 when there is no line feed
    if end_names < 0:
        raise FileFormatError(f"{path}: missing header")
    header = text[:end_header].rstrip(b"\r").decode("latin-1")
    pairs = [item.partition("=") for item in header.split(",")]
    if [(key, sep) for key, sep, _ in pairs] != [(key, "=") for key in _HEADER_KEYS]:
        raise FileFormatError(f"{path}: expected the header "
                              f"{','.join(k + '=' for k in _HEADER_KEYS)}, got {header!r}")
    nx, ny, pitch, theta, budget = (value for _, _, value in pairs)
    names = text[end_header + 1:end_names].rstrip(b"\r").decode("latin-1").split(",")
    try:
        grid, budget = GridSpec(int(nx), int(ny), float(pitch)), int(budget)
        expected, dtype = _COLUMNS[budget > 0]
        if names != expected:
            raise FileFormatError(f"{path}: columns {','.join(names)!r}, but budget {budget} "
                                  f"records {','.join(expected)}")
        # the rows all end in CRLF, as written, or all in LF; every separator must sit
        # in its column, so that no edit moves a digit into another field or cell
        n, body = grid.ncells, np.frombuffer(text, np.uint8, offset=end_names + 1)
        row = np.frombuffer(_ROW if body.size == n * len(_ROW) else _ROW[:-2] + b"\n", np.uint8)
        separators = row != ord("0")
        if body.size != n * row.size or (body.reshape(n, -1)[:, separators]
                                         != row[separators]).any():
            raise FileFormatError(
                f"{path}: expected {n} rows of {len(names)} fields of 16 hexadecimal digits, "
                f"one per cell of the {grid.nx}x{grid.ny} grid; re-run measure to rewrite "
                "records written in an earlier encoding")
        readout = np.empty((len(PROJECTORS), grid.ny, grid.nx), dtype)
        values = readout.reshape(len(PROJECTORS), n)
        digits = np.empty((min(_ROW_BLOCK, n), len(PROJECTORS)), "V16")
        for start in range(0, n, _ROW_BLOCK):
            m = min(_ROW_BLOCK, n - start)
            digits[:m] = _digits(body, m, row.size, start * row.size)
            words = np.frombuffer(binascii.unhexlify(digits[:m]), dtype.newbyteorder(">"))
            values[:, start:start + m] = words.reshape(m, -1).T
        readout.flags.writeable = False   # fresh and C-ordered: the records keep it uncopied
        return ScanRecords(readout, grid, float(theta), budget)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
