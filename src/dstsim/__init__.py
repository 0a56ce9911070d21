"""Direct strong tomography of 2D transverse photon wavefunctions, simulated end to end.

Pipeline: generate an input mode (:mod:`dstsim.wavefield`), measure it cell
by cell with a strongly coupled polarization pointer and zero-momentum
post-selection (:mod:`dstsim.engine`), invert the readout into complex field
maps (:mod:`dstsim.reconstruct`), and optionally propagate fields between
object and detection planes for digital holography
(:mod:`dstsim.holography`).  The :mod:`dstsim.cli` module wires these into
reproducible command-line experiments.
"""

from .errors import DegenerateFieldError, FileFormatError, SamplingGuardError
from .wavefield import (
    GridSpec,
    ModeSpec,
    TransverseWavefunction,
    apply_vortex_plate,
    make_mode,
    normalize,
    read_wfgrid,
    write_wfgrid,
)
from .engine import (
    PROJECTORS,
    ScanRecords,
    pointer_amplitudes,
    read_records_csv,
    scan,
    scan_probability_maps,
    write_records_csv,
)
from .reconstruct import (
    QualityReport,
    ReconstructionResult,
    reconstruct_dst,
    reconstruct_dwt,
    score,
)
from .holography import (
    ObjectReconstruction,
    PropagationSpec,
    apply_object,
    propagate_forward,
    propagate_inverse,
    read_pgm,
    reconstruct_object,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateFieldError",
    "FileFormatError",
    "GridSpec",
    "ModeSpec",
    "ObjectReconstruction",
    "PROJECTORS",
    "PropagationSpec",
    "QualityReport",
    "ReconstructionResult",
    "SamplingGuardError",
    "ScanRecords",
    "TransverseWavefunction",
    "apply_object",
    "apply_vortex_plate",
    "make_mode",
    "normalize",
    "pointer_amplitudes",
    "propagate_forward",
    "propagate_inverse",
    "read_pgm",
    "read_records_csv",
    "read_wfgrid",
    "reconstruct_dst",
    "reconstruct_dwt",
    "reconstruct_object",
    "scan",
    "scan_probability_maps",
    "score",
    "write_records_csv",
    "write_wfgrid",
]
