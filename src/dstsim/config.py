"""Flat key-value experiment configuration with canonical serialization.

Every shared knob of the CLI commands lives here: a config file may hold every
key, and each key ``k`` that a command reads is also its flag ``--k`` (``_``
written as ``-``), whose value overrides the file's.  The canonical text
form is a serialization fixed point (serialize -> parse -> serialize returns
identical text), which keeps experiment provenance diff-friendly.  A config
file is read as UTF-8 whatever the locale, the encoding in which the CLI
writes ``config.resolved``.  A run is reproducible bit for bit from (config,
seed) and its input files.  Each value is checked once, where the config is
built, by the library code that uses it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields

from .engine import STRONG_THETA, check_budget, check_seed, check_theta
from .holography import KERNELS, PropagationSpec, check_threshold
from .reconstruct import ESTIMATORS
from .wavefield import MODES, GridSpec, ModeSpec, check_charge, is_integer

_AUTO = "auto"


def _key(default, doc: str, choices=None):
    """A configuration key: its default, and the ``help`` and ``choices`` of its flag."""
    return field(default=default, metadata={"help": doc, "choices": choices})


@dataclass
class ExperimentConfig:
    # grid
    nx: int = _key(64, "scan cells along x")
    ny: int = _key(64, "scan cells along y")
    pitch_um: float = _key(125.0, "cell width (um)")
    # input mode
    mode: str = _key("gaussian", "input mode", list(MODES))
    l: int = _key(1, "azimuthal index of an lg mode")
    waist_um: float | None = _key(None, "beam waist (um); auto: nx * pitch / 8")
    cx_um: float = _key(0.0, "mode center x offset (um)")
    cy_um: float = _key(0.0, "mode center y offset (um)")
    vortex_l: int = _key(0, "charge of a vortex phase plate applied about the grid center "
                            "after mode generation (0: none)")
    # coupling / estimator
    theta: float = _key(STRONG_THETA, "coupling angle (rad): measure applies it; the records "
                                     "carry it")
    estimator: str = _key("dst", "strong (dst) or weak-value (dwt) inversion",
                          list(ESTIMATORS))
    photons: int = _key(0, "photons per basis setting per cell (0 = noiseless)")
    seed: int = _key(0, "photon sampling seed")
    # propagation
    lambda_nm: float = _key(808.0, "wavelength (nm)")
    distance_mm: float = _key(10.0, "propagation distance (mm)")
    kernel: str = _key("fresnel", "propagation kernel", list(KERNELS))
    pad_factor: int = _key(2, "zero-padding factor of the propagation grid (2 to 2**31)")
    # holography
    threshold: float = _key(1e-3, "holo object validity threshold relative to peak illumination")
    # output
    out: str = _key("out", "output directory")

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {', '.join(choices)}; got {value!r}")
            if _KEY_TYPES[f.name] is int and not is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if not isinstance(value, str):
                continue
            # from_text ends a value at '#' or a line break and strips surrounding spaces
            if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
                raise ValueError(f"{f.name} must not contain '#' or a line break, or start "
                                 f"or end with whitespace, got {value!r}")
            # config.resolved is UTF-8, which cannot hold a lone surrogate: the form Python
            # gives the bytes of an argument that the locale's encoding cannot decode
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{f.name} must be text that UTF-8 can encode, "
                                 f"got {value!r}") from None
        try:
            self.grid()
            self.mode_spec()
            check_charge("vortex_l", self.vortex_l)
            check_budget(self.photons)
            check_seed(self.seed)
            check_theta(self.theta)
            check_threshold(self.threshold)
            self.propagation_spec()
        except ValueError as exc:  # name the keys and their values as written, not in SI
            reason = str(exc).split(", got ")[0]
            keys = next((k for p, k in _KEYS_OF.items() if reason.startswith(p + " ")), None)
            if keys is None:
                raise
            values = ", ".join(_format_value(k, getattr(self, k)) for k in keys)
            raise ValueError(f"{', '.join(keys)}: {reason}, got {values}") from None

    def grid(self) -> GridSpec:
        """The scan grid, in SI units."""
        return GridSpec(self.nx, self.ny, self.pitch_um * 1e-6)

    def mode_spec(self) -> ModeSpec:
        """The input mode that prepare generates, in SI units; waist auto is resolved."""
        grid = self.grid()
        waist = self.waist_um * 1e-6 if self.waist_um is not None else grid.nx * grid.pitch / 8.0
        return ModeSpec(kind=self.mode, waist=waist, oam=self.l,
                        center=(self.cx_um * 1e-6, self.cy_um * 1e-6))

    def propagation_spec(self) -> PropagationSpec:
        """The wavelength, distance, kernel and padding of the holo commands, in SI units."""
        return PropagationSpec(self.lambda_nm * 1e-9, self.distance_mm * 1e-3,
                               self.kernel, self.pad_factor)


#: The type of every key: int, float, str or float | None.
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)
#: The keys behind each parameter that a library check in ``validate`` names first in
#: its error, where the two names differ; an error that names its key is raised as written.
_KEYS_OF = {"grid": ("nx", "ny"), "pitch": ("pitch_um",), "waist": ("waist_um",),
            "oam": ("l",), "center": ("cx_um", "cy_um"), "photons_per_setting": ("photons",),
            "wavelength": ("lambda_nm",), "distance": ("distance_mm",)}


def _format_value(key: str, value) -> str:
    """The text of ``value`` as its field's type, which ``parse_value`` reads back."""
    kind = _KEY_TYPES[key]
    if value is None:
        return _AUTO
    if kind is int:
        return str(int(value))
    if kind is str:
        return value
    return repr(float(value))


def to_text(cfg: ExperimentConfig) -> str:
    lines = ["# dstsim experiment configuration"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def parse_value(key: str, text: str):
    """The value of ``key`` written as ``text``, in a config file or as the key's flag."""
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown configuration key {key!r}")
    try:
        if kind == float | None:
            return None if text == _AUTO else float(text)
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def from_text(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return ExperimentConfig(**values)


def from_file(path) -> ExperimentConfig:
    """The configuration in the UTF-8 file ``path``; each ValueError it raises names the file.

    One leading UTF-8 byte order mark is skipped; a U+FEFF anywhere else is
    text.  Text that is not UTF-8 is refused with the config line of its
    first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return from_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:  # from_text's count of lines up to the bad byte's own
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}: config line {lineno}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
