"""Flat key-value experiment configuration with canonical serialization.

A run is reproducible bit for bit from (config, seed): every knob the CLI
commands consume lives here, flags override file values, and the canonical
text form is a serialization fixed point (serialize -> parse -> serialize
returns identical text), which keeps experiment provenance diff-friendly.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, fields

from .holography import PropagationKernel
from .reconstruct import ESTIMATORS
from .wavefield import ModeKind

_AUTO = "auto"


@dataclass
class ExperimentConfig:
    # grid
    nx: int = 64
    ny: int = 64
    pitch_um: float = 125.0
    # input mode
    mode: str = "gaussian"          # a wavefield.ModeKind value
    l: int = 1
    radial: int = 0
    waist_um: float | None = None   # None: nx * pitch / 8
    cx_um: float = 0.0
    cy_um: float = 0.0
    vortex_l: int = 0               # vortex plate applied after mode generation
    # coupling / estimator
    theta: float | None = None      # None: pi/2 for dst; dwt requires explicit
    estimator: str = "dst"          # one of reconstruct.ESTIMATORS
    photons: int = 0                # photons per basis setting per cell; 0 = noiseless
    seed: int = 0
    # propagation
    lambda_nm: float = 808.0
    distance_mm: float = 10.0
    kernel: str = "fresnel"         # a holography.PropagationKernel value
    pad_factor: int = 2
    # output
    out: str = "out"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for key, choices in (("mode", [k.value for k in ModeKind]), ("estimator", ESTIMATORS),
                             ("kernel", [k.value for k in PropagationKernel])):
            value = getattr(self, key)
            if value not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}; got {value!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if _KEY_TYPES[f.name] is int and (isinstance(value, bool)
                                              or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            # from_text ends a value at '#' or a line break and strips surrounding spaces
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ValueError(f"{f.name} must not contain '#' or a line break, or start "
                                 f"or end with whitespace, got {value!r}")
        if self.photons < 0:
            raise ValueError("photons must be >= 0")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.pad_factor < 2:
            raise ValueError("pad_factor must be >= 2")

    def resolved_theta(self) -> float:
        """Coupling angle, defaulting to pi/2 for the strong estimator only."""
        if self.theta is not None:
            return self.theta
        if self.estimator == "dwt":
            raise ValueError("estimator 'dwt' requires an explicit theta")
        return math.pi / 2


#: The type of every key: int, float, str or float | None.
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def _format_value(key: str, value) -> str:
    """The text of ``value`` as its field's type, which ``_parse_value`` reads back."""
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


def _parse_value(key: str, text: str):
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown configuration key {key!r}")
    if kind == float | None:
        return None if text == _AUTO else float(text)
    return kind(text)


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
        values[key] = _parse_value(key, val)
    return ExperimentConfig(**values)


def from_file(path) -> ExperimentConfig:
    with open(path) as fh:
        return from_text(fh.read())
