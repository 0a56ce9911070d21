"""Command-line front end.

Commands: prepare, measure, reconstruct, score, holo forward|inverse|object.
Exit codes: 0 success, 2 validation error, 3 numerical or degenerate-input
error, 4 I/O or file-format error.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import tempfile

from . import config as cfgmod
from . import engine, holography, reconstruct, wavefield
from .errors import DegenerateFieldError, FileFormatError, SamplingGuardError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, content) -> None:
    """Write ``content`` to ``path`` via a temp file in its directory and a rename.

    ``content`` is text, or a writer called with the temp file's path.  On
    any failure the temp file is removed and ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
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


def _load_config(args) -> cfgmod.ExperimentConfig:
    cfg = cfgmod.from_file(args.config) if args.config else cfgmod.ExperimentConfig()
    for f in dataclasses.fields(cfg):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.validate()
    return cfg


def _grid(cfg: cfgmod.ExperimentConfig) -> wavefield.GridSpec:
    return wavefield.GridSpec(cfg.nx, cfg.ny, cfg.pitch_um * 1e-6)


def _mode_spec(cfg: cfgmod.ExperimentConfig, grid: wavefield.GridSpec) -> wavefield.ModeSpec:
    waist = cfg.waist_um * 1e-6 if cfg.waist_um is not None else wavefield.default_waist(grid)
    return wavefield.ModeSpec(
        kind=wavefield.ModeKind(cfg.mode), waist=waist, oam=cfg.l, radial=cfg.radial,
        center=(cfg.cx_um * 1e-6, cfg.cy_um * 1e-6),
    )


def _prop_spec(cfg: cfgmod.ExperimentConfig) -> holography.PropagationSpec:
    return holography.PropagationSpec(cfg.lambda_nm * 1e-9, cfg.distance_mm * 1e-3,
                                      holography.PropagationKernel(cfg.kernel))


def _out_path(cfg: cfgmod.ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _write_plot_maps(res: reconstruct.ReconstructionResult, cfg) -> None:
    """Emit gnuplot-ready density/phase maps: 'x_um y_um value' triplets, a blank line per row."""
    xs = ["%.9g" % x for x in res.grid.x_coords() * 1e6]
    rows = (" %.9g %%.17g\n" % y for y in res.grid.y_coords() * 1e6)
    fmt = "".join("".join(x + row for x in xs) + "\n" for row in rows)  # coordinates baked in
    for name, data in (("density.dat", res.density_map), ("phase.dat", res.phase_map)):
        _atomic_write(_out_path(cfg, name), fmt % tuple(data.ravel().tolist()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> None:
    cfg = _load_config(args)
    grid = _grid(cfg)
    field = wavefield.make_mode(_mode_spec(cfg, grid), grid)
    if cfg.vortex_l:
        field = wavefield.apply_vortex_plate(field, cfg.vortex_l)
    _atomic_write(_out_path(cfg, "field.wfgrid"), lambda p: wavefield.write_wfgrid(p, field))
    _atomic_write(_out_path(cfg, "config.resolved"), cfgmod.to_text(cfg))
    print(_out_path(cfg, "field.wfgrid"))


def cmd_measure(args) -> None:
    cfg = _load_config(args)
    field = wavefield.read_wfgrid(args.field)
    coupling = engine.CouplingConfig(cfg.resolved_theta())
    records = engine.scan(field, coupling, cfg.photons, cfg.seed)
    _atomic_write(_out_path(cfg, "records.csv"),
                  lambda p: engine.write_records_csv(records, p))
    print(_out_path(cfg, "records.csv"))


def cmd_reconstruct(args) -> None:
    cfg = _load_config(args)
    records = engine.read_records_csv(args.records)
    grid = _grid(cfg)
    if cfg.estimator == "dwt":
        res = reconstruct.reconstruct_dwt(records, grid, cfg.resolved_theta())
    else:
        res = reconstruct.reconstruct_dst(records, grid)
    report = None
    if args.ideal:
        report = reconstruct.score(res, wavefield.read_wfgrid(args.ideal))
    _atomic_write(_out_path(cfg, "reconstruction.wfgrid"),
                  lambda p: wavefield.write_wfgrid(p, res.field()))
    sidecar = json.dumps(reconstruct.sidecar_dict(res, report), indent=2, sort_keys=True)
    _atomic_write(_out_path(cfg, "report.json"), sidecar + "\n")
    _write_plot_maps(res, cfg)
    print(_out_path(cfg, "report.json"))


def cmd_score(args) -> None:
    cfg = _load_config(args)
    rec_field = wavefield.read_wfgrid(args.rec)
    ideal = wavefield.read_wfgrid(args.ideal)
    report = reconstruct.score(reconstruct.ReconstructionResult.from_field(rec_field), ideal)
    text = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
    _atomic_write(_out_path(cfg, "score.json"), text)
    sys.stdout.write(text)


def cmd_holo_forward(args) -> None:
    cfg = _load_config(args)
    field = wavefield.read_wfgrid(args.infile)
    if args.object:
        img = holography.read_pgm(args.object)
        field = holography.apply_object(field, holography.object_from_pgm(img, args.object_map))
    out = holography.propagate_forward(field, _prop_spec(cfg), cfg.pad_factor)
    _atomic_write(_out_path(cfg, "propagated.wfgrid"), lambda p: wavefield.write_wfgrid(p, out))
    print(_out_path(cfg, "propagated.wfgrid"))


def cmd_holo_inverse(args) -> None:
    cfg = _load_config(args)
    field = wavefield.read_wfgrid(args.infile)
    out = holography.propagate_inverse(field, _prop_spec(cfg), cfg.pad_factor)
    _atomic_write(_out_path(cfg, "backpropagated.wfgrid"), lambda p: wavefield.write_wfgrid(p, out))
    print(_out_path(cfg, "backpropagated.wfgrid"))


def cmd_holo_object(args) -> None:
    cfg = _load_config(args)
    measured = wavefield.read_wfgrid(args.measured)
    known = wavefield.read_wfgrid(args.input)
    obj = holography.reconstruct_object(
        measured, known, _prop_spec(cfg), threshold=args.threshold,
        pad_factor=cfg.pad_factor,
    )
    t_field = wavefield.TransverseWavefunction(measured.grid, obj.transmission_map)
    _atomic_write(_out_path(cfg, "transmission.wfgrid"),
                  lambda p: wavefield.write_wfgrid(p, t_field))
    summary = {
        "threshold": args.threshold,
        "valid_cells": int(obj.validity_mask.sum()),
        "total_cells": int(obj.validity_mask.size),
        "nyquist_fraction": obj.nyquist_fraction,
        "distance_over_extent": obj.distance_over_extent,
    }
    _atomic_write(_out_path(cfg, "object_report.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(_out_path(cfg, "transmission.wfgrid"))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _shared_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="configuration file (flags override its values)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--pitch-um", dest="pitch_um", type=float)
    p.add_argument("--mode", choices=[k.value for k in wavefield.ModeKind])
    p.add_argument("--l", type=int)
    p.add_argument("--waist-um", dest="waist_um", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--estimator", choices=reconstruct.ESTIMATORS)
    p.add_argument("--photons", type=int, help="photons per basis setting per cell (0 = noiseless)")
    p.add_argument("--lambda-nm", dest="lambda_nm", type=float)
    p.add_argument("--distance-mm", dest="distance_mm", type=float)
    p.add_argument("--kernel", choices=[k.value for k in holography.PropagationKernel])
    p.add_argument("--pad-factor", dest="pad_factor", type=int)
    return p


@functools.cache  # parse_args leaves the parser as it is, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    shared = _shared_parser()
    parser = argparse.ArgumentParser(
        prog="dstsim",
        description="Simulate direct strong tomography of 2D photon wavefunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[shared], help="generate an input mode")
    p.add_argument("--cx-um", dest="cx_um", type=float, help="mode center x offset")
    p.add_argument("--cy-um", dest="cy_um", type=float, help="mode center y offset")
    p.add_argument("--vortex-l", dest="vortex_l", type=int,
                   help="apply a vortex phase plate of this charge about the grid center")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("measure", parents=[shared], help="scan a field cell by cell")
    p.add_argument("--field", required=True, help="input WFGRID file")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("reconstruct", parents=[shared], help="invert a records CSV")
    p.add_argument("--records", required=True, help="records CSV from 'measure'")
    p.add_argument("--ideal", help="optional WFGRID ground truth to score against")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("score", parents=[shared], help="score one WFGRID against another")
    p.add_argument("--rec", required=True, help="reconstructed WFGRID")
    p.add_argument("--ideal", required=True, help="ideal WFGRID")
    p.set_defaults(func=cmd_score)

    holo = sub.add_parser("holo", help="propagation and object reconstruction")
    hsub = holo.add_subparsers(dest="holo_command", required=True)

    p = hsub.add_parser("forward", parents=[shared], help="propagate forward")
    p.add_argument("--in", dest="infile", required=True, help="input WFGRID")
    p.add_argument("--object", help="PGM (P5) object mask applied before propagation")
    p.add_argument("--object-map", dest="object_map", choices=["amplitude", "phase"],
                   default="amplitude")
    p.set_defaults(func=cmd_holo_forward)

    p = hsub.add_parser("inverse", parents=[shared], help="back-propagate (paraxial)")
    p.add_argument("--in", dest="infile", required=True, help="input WFGRID")
    p.set_defaults(func=cmd_holo_inverse)

    p = hsub.add_parser("object", parents=[shared], help="reconstruct object transmission")
    p.add_argument("--measured", required=True, help="measured detection-plane WFGRID")
    p.add_argument("--input", required=True, help="known illumination WFGRID")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="validity threshold relative to peak illumination")
    p.set_defaults(func=cmd_holo_object)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DegenerateFieldError, SamplingGuardError) as exc:
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
