"""Outside-in tracing of dstsim's layers, installed from the benchmark's side.

The tracer replaces public functions of the six ``dstsim`` modules, and the
2-D transforms of ``numpy.fft`` and ``scipy.fft``, with wrappers that record
a span around each call. The CLI and ``engine.scan`` reach these functions
through module attributes and globals, so the wrappers also catch nested
calls. The benchmark itself opens one ``cli.<command>`` span around each
``cli.main`` call, so every moment of a trial falls inside some span.

A span is ``[name, start_ns, end_ns, cpu_ns, parent, trial, extra]``: wall
clock at start and end, the process CPU time spent inside, the index of
the enclosing span (-1 for none) and the trial. Spans stay in memory and are
written out once, at the end of the run. A layer's self time is its spans'
CPU time minus that of their child spans, scaled to the reference host
speed like the trial times (see run.py). I/O wait is a file-I/O span's wall
time minus its CPU time, as measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

#: Wrapped functions by layer. Each layer is a module of ``dstsim``.
TARGETS = {
    "config": ("from_file", "to_text"),
    "wavefield": ("make_mode", "apply_vortex_plate", "read_wfgrid", "write_wfgrid"),
    "engine": ("scan", "scan_probability_maps", "cell_rng",
               "write_records_csv", "read_records_csv"),
    "reconstruct": ("reconstruct_dst", "reconstruct_dwt", "score"),
    "holography": ("read_pgm", "apply_object", "propagate_forward",
                   "propagate_inverse", "reconstruct_object"),
}
#: File I/O functions: their spans also record the file's size.
IO_FUNCS = {
    "wavefield": ("read_wfgrid", "write_wfgrid"),
    "engine": ("read_records_csv", "write_records_csv"),
}
CLI_COMMANDS = ("prepare", "measure", "reconstruct", "holo_forward", "holo_inverse",
                "holo_object")
FFT = "holography.fft"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCS = ("fft2", "ifft2")
PROPAGATE = ("holography.propagate_forward", "holography.propagate_inverse")


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = [(f"cli.{c}.self_ms", "ms", "lower") for c in CLI_COMMANDS]
    names.append(("cli.calls_failed", "count", "lower"))
    for layer, funcs in TARGETS.items():
        names += [(f"{layer}.{f}.self_ms", "ms", "lower") for f in funcs]
        if layer == "wavefield":
            names += [("wavefield.io_bytes", "bytes", "lower"),
                      ("wavefield.io_wait_ms", "ms", "lower")]
        elif layer == "engine":
            names += [("engine.cell_rng.calls", "count", "lower"),
                      ("engine.records_bytes", "bytes", "lower"),
                      ("engine.io_wait_ms", "ms", "lower")]
    names += [(f"{FFT}.calls", "count", "lower"), (f"{FFT}.self_ms", "ms", "lower"),
              (f"{FFT}.points", "count", "lower"), (f"{FFT}.useful_frac", "ratio", "higher"),
              ("trace.overhead_ms", "ms", "lower")]
    return names


def _file_size(args) -> int:
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            try:
                return os.path.getsize(a)
            except OSError:
                return 0
    return 0


def _fft_points(args, kwargs) -> int:
    """Points transformed by one call: the transform shape times any batch axes."""
    shape = getattr(args[0], "shape", ())
    axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    per = [shape[ax] for ax in axes]
    batch = 1
    for n in shape:
        batch *= n
    for n in per:
        batch //= n
    points = batch
    for n in (s if s is not None else per):
        points *= n
    return points


class Tracer:
    """Records spans for the trial in ``self.trial``; passes calls through while it is None."""

    def __init__(self):
        self.spans: list = []
        self.trial = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, funcs in TARGETS.items():
            module = importlib.import_module(f"dstsim.{layer}")
            for func in funcs:
                kind = "io" if func in IO_FUNCS.get(layer, ()) else None
                if f"{layer}.{func}" in PROPAGATE:
                    kind = "propagate"
                self._patch(module, func, f"{layer}.{func}", kind)
        for modname in FFT_MODULES:
            module = importlib.import_module(modname)
            for func in FFT_FUNCS:
                self._patch(module, func, FFT, "fft")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _patch(self, module, attr: str, name: str, kind) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name, kind))

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, kind):
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter_ns, time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.trial is None:
                return fn(*args, **kwargs)
            extra = None
            if kind == "fft":
                if stack and spans[stack[-1]][0] == FFT:
                    return fn(*args, **kwargs)   # a transform built on another
                useful = 0
                for idx in reversed(stack):
                    if spans[idx][0] in PROPAGATE:
                        useful = spans[idx][6]
                        break
                extra = (_fft_points(args, kwargs), useful)
            elif kind == "propagate":
                extra = getattr(getattr(args[0], "grid", None), "ncells", 0)
            rec = [name, 0, 0, 0, stack[-1] if stack else -1, self.trial, extra]
            stack.append(len(spans))
            spans.append(rec)
            cpu0 = cpu()
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[3] = cpu() - cpu0
                stack.pop()
                if kind == "io":
                    rec[6] = _file_size(args)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around one CLI call.

        It yields the record; the benchmark stores ``(exit code, scale)`` in
        its last field, where ``scale`` turns the call's CPU times into
        times at the reference host speed.
        """
        rec = [name, 0, 0, 0, self._stack[-1] if self._stack else -1, self.trial, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        cpu0 = time.process_time_ns()
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            rec[3] = time.process_time_ns() - cpu0
            self._stack.pop()

    # -- reporting --------------------------------------------------------

    def _scales(self) -> list[float]:
        """For each span, the scale of the CLI call it belongs to (1 if none was stored)."""
        scales = []
        for rec in self.spans:
            if rec[4] >= 0:
                scales.append(scales[rec[4]])
            else:
                scales.append(rec[6][1] if rec[6] else 1.0)
        return scales

    def layer_metrics(self, trials: int, trial_p50_ms: float, overhead_ms: float) -> dict:
        """Every per-layer metric per trial; a missing function's metrics are left out.

        Counts, bytes and waits are means over the traced trials. Self times
        are scaled like trial times, and reported as each span's share of the
        traced median trial ``trial_p50_ms``: its mean self time times the
        median over the mean trial time. So they add up to ``trial_p50_ms``,
        as medians of each span would not.
        """
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3]
        self_ns = defaultdict(float)
        calls = defaultdict(int)
        io_wait = defaultdict(int)
        io_bytes = defaultdict(int)
        failed = points = useful = 0
        for i, (rec, scale) in enumerate(zip(self.spans, self._scales())):
            name, start, end, cpu, _, _, extra = rec
            self_ns[name] += (cpu - child[i]) * scale
            calls[name] += 1
            layer, _, func = name.partition(".")
            if layer == "cli":
                failed += bool(extra and extra[0])
            elif name == FFT:
                points += extra[0]
                useful += extra[1]
            elif func in IO_FUNCS.get(layer, ()):
                io_wait[layer] += end - start - cpu
                io_bytes[layer] += extra

        per = 1.0 / trials
        mean_ms = sum(self_ns.values()) * per / 1e6
        share = trial_p50_ms / mean_ms if mean_ms else 1.0
        values = {"cli.calls_failed": failed * per,
                  "wavefield.io_bytes": io_bytes["wavefield"] * per,
                  "wavefield.io_wait_ms": io_wait["wavefield"] * per / 1e6,
                  "engine.cell_rng.calls": calls["engine.cell_rng"] * per,
                  "engine.records_bytes": io_bytes["engine"] * per,
                  "engine.io_wait_ms": io_wait["engine"] * per / 1e6,
                  f"{FFT}.calls": calls[FFT] * per,
                  f"{FFT}.points": points * per,
                  f"{FFT}.useful_frac": useful / points if points else 0.0,
                  "trace.overhead_ms": overhead_ms}
        missing = set(self.missing)
        metrics = {}
        for name, unit, _ in per_layer_names():
            span = name.rsplit(".", 1)[0]
            if span in missing:
                continue
            if name.endswith(".self_ms"):
                value = self_ns[span] * per / 1e6 * share
            else:
                value = values[name]
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def self_sum_ms(self, trials: int) -> float:
        """Mean per-trial sum of all scaled self times: the scaled time the CLI call spans cover."""
        covered = sum(rec[3] * scale
                      for rec, scale in zip(self.spans, self._scales()) if rec[4] < 0)
        return covered / trials / 1e6

    def write(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
