"""Command-line front end.

Commands: prepare, measure, reconstruct, score, holo forward|inverse|object.
Exit codes: 0 success, 2 validation error, 3 numerical, degenerate-input or
out-of-memory error, 4 I/O or file-format error.  Output files are atomic.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

from . import config as cfgmod
from . import engine, holography, reconstruct, wavefield
from .errors import DegenerateFieldError, FileFormatError, SamplingGuardError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, content) -> str:
    """Write ``content`` to ``path`` via a temp file in its directory and a rename.

    ``content`` is text, or a writer called with the temp file's path.  The
    file gets the mode ``open(path, "w")`` would give it under the umask.  On
    any failure the temp file is removed and ``path`` is left untouched.
    Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        if isinstance(content, str):
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        else:
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


def _load_config(args) -> cfgmod.ExperimentConfig:
    """The ``--config`` file's configuration, or the defaults, with the given flags applied."""
    cfg = cfgmod.from_file(args.config) if args.config else cfgmod.ExperimentConfig()
    flags = {f.name: cfgmod.parse_value(f.name, value) for f in dataclasses.fields(cfg)
             if (value := getattr(args, f.name, None)) is not None}
    return dataclasses.replace(cfg, **flags)


def _write_field(cfg: cfgmod.ExperimentConfig, name: str, field) -> str:
    """Write ``field`` as the WFGRID file ``name`` in the output directory; return its path."""
    return _atomic_write(os.path.join(cfg.out, name), lambda p: wavefield.write_wfgrid(p, field))


def _write_json(cfg: cfgmod.ExperimentConfig, name: str, data: dict) -> str:
    """Write ``data`` as the indented, key-sorted JSON file ``name`` in the output directory.

    Returns the JSON text, which the file holds with a final line break.  A
    non-finite value raises ValueError: JSON has no NaN or infinity.
    """
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(os.path.join(cfg.out, name), text + "\n")
    return text


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prepare(args, cfg: cfgmod.ExperimentConfig) -> str:
    field = wavefield.apply_vortex_plate(wavefield.make_mode(cfg.mode_spec(), cfg.grid()),
                                         cfg.vortex_l)
    path = _write_field(cfg, "field.wfgrid", field)
    _atomic_write(os.path.join(cfg.out, "config.resolved"), cfgmod.to_text(cfg))
    return path


def cmd_measure(args, cfg: cfgmod.ExperimentConfig) -> str:
    field = wavefield.read_wfgrid(args.field)
    records = engine.scan(field, cfg.theta, cfg.photons, cfg.seed)
    return _atomic_write(os.path.join(cfg.out, "records.csv"),
                         lambda p: engine.write_records_csv(records, p))


def cmd_reconstruct(args, cfg: cfgmod.ExperimentConfig) -> str:
    records = engine.read_records_csv(args.records)
    # looked up on the module at call time, so a wrapped or patched inversion is the one run
    res = getattr(reconstruct, "reconstruct_" + cfg.estimator)(records)
    # every QualityReport metric, null without --ideal; zero_count_cells is null when noiseless
    metrics = dict.fromkeys(f.name for f in dataclasses.fields(reconstruct.QualityReport))
    if args.ideal:
        ideal = wavefield.read_wfgrid(args.ideal)
        metrics = dataclasses.asdict(reconstruct.score(res.field, ideal))
    mask = res.zero_count_mask
    _write_field(cfg, "reconstruction.wfgrid", res.field)
    _write_json(cfg, "report.json", {
        "psi_tilde": res.psi_tilde, "estimator": res.estimator, "theta": records.theta,
        "zero_count_cells": None if mask is None else int(mask.sum()), **metrics})
    return os.path.join(cfg.out, "report.json")


def cmd_score(args, cfg: cfgmod.ExperimentConfig) -> str:
    report = reconstruct.score(wavefield.read_wfgrid(args.rec), wavefield.read_wfgrid(args.ideal))
    return _write_json(cfg, "score.json", dataclasses.asdict(report))


def cmd_holo_forward(args, cfg: cfgmod.ExperimentConfig) -> str:
    field = wavefield.read_wfgrid(args.infile)
    if args.object:
        try:
            field = holography.apply_object(field, holography.read_pgm(args.object) / 255.0)
        except ValueError as exc:   # the object's shape is not the field's
            raise ValueError(f"{args.object}: {exc}") from None
    out = holography.propagate_forward(field, cfg.propagation_spec())
    return _write_field(cfg, "propagated.wfgrid", out)


def cmd_holo_inverse(args, cfg: cfgmod.ExperimentConfig) -> str:
    field = wavefield.read_wfgrid(args.infile)
    out = holography.propagate_inverse(field, cfg.propagation_spec())
    return _write_field(cfg, "backpropagated.wfgrid", out)


def cmd_holo_object(args, cfg: cfgmod.ExperimentConfig) -> str:
    measured = wavefield.read_wfgrid(args.measured)
    known = wavefield.read_wfgrid(args.input)
    obj = holography.reconstruct_object(measured, known, cfg.propagation_spec(), cfg.threshold)
    _write_field(cfg, "backpropagated.wfgrid", obj.backpropagated)
    path = _write_field(cfg, "transmission.wfgrid", obj.transmission)
    summary = {
        "threshold": cfg.threshold,
        "valid_cells": int(obj.validity_mask.sum()),
        "total_cells": int(obj.validity_mask.size),
        "nyquist_fraction": obj.nyquist_fraction,
        "distance_over_extent": obj.distance_over_extent,
    }
    _write_json(cfg, "object_report.json", summary)
    return path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _command(sub, name: str, func, keys: tuple[str, ...], help: str) -> argparse.ArgumentParser:
    """The subparser ``name`` running ``func``: ``--config``, then a flag for each key
    it reads and ``--out``, whose value reads as the same text in the file would."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)   # a prefix names no flag
    p.add_argument("--config", help="configuration file (flags override its values)")
    for f in dataclasses.fields(cfgmod.ExperimentConfig):
        if f.name in keys or f.name == "out":
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **f.metadata)
    p.set_defaults(func=func, parser=p)   # a refused flag prints this command's usage
    return p


@functools.cache  # parse_args leaves the parser as it is, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstsim",
        description="Simulate direct strong tomography of 2D photon wavefunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every_key = tuple(f.name for f in dataclasses.fields(cfgmod.ExperimentConfig))
    optics = ("lambda_nm", "distance_mm", "kernel", "pad_factor")

    # prepare writes every key to config.resolved
    _command(sub, "prepare", cmd_prepare, every_key, "generate an input mode")

    p = _command(sub, "measure", cmd_measure, ("theta", "photons", "seed"),
                 "scan a field cell by cell")
    p.add_argument("--field", required=True, help="input WFGRID file")

    # theta is accepted but not read, as the records carry it: the benchmark's workloads
    # still pass it, and ROADMAP item 1a, which drops those calls, removes it here
    p = _command(sub, "reconstruct", cmd_reconstruct, ("estimator", "theta"),
                 "invert a records CSV")
    p.add_argument("--records", required=True, help="records CSV from 'measure'")
    p.add_argument("--ideal", help="optional WFGRID ground truth to score against")

    p = _command(sub, "score", cmd_score, (), "score one WFGRID against another")
    p.add_argument("--rec", required=True, help="reconstructed WFGRID")
    p.add_argument("--ideal", required=True, help="ideal WFGRID")

    holo = sub.add_parser("holo", help="propagation and object reconstruction",
                          allow_abbrev=False)
    hsub = holo.add_subparsers(dest="holo_command", required=True)

    p = _command(hsub, "forward", cmd_holo_forward, optics, "propagate forward")
    p.add_argument("--in", dest="infile", required=True, help="input WFGRID")
    p.add_argument("--object", help="PGM (P5) object mask applied before propagation, "
                                    "each grey level as the amplitude level/255")

    p = _command(hsub, "inverse", cmd_holo_inverse, optics, "back-propagate (paraxial)")
    p.add_argument("--in", dest="infile", required=True, help="input WFGRID")

    p = _command(hsub, "object", cmd_holo_object, (*optics, "threshold"),
                 "back-propagate, then reconstruct object transmission")
    p.add_argument("--measured", required=True, help="measured detection-plane WFGRID")
    p.add_argument("--input", required=True, help="known illumination WFGRID")

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        print(args.func(args, _load_config(args)))
    # numpy's MemoryError names the size of the array it could not allocate
    except (DegenerateFieldError, SamplingGuardError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
