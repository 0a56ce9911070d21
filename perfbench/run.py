"""Benchmark of the dstsim command line, driven in-process.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each with its own report.

One process runs one closed-loop client: it starts a trial only after the
previous one has finished, with no extra threads. A trial is one full CLI
sequence of the workload (see workloads.py), each command run through
``dstsim.cli.main(argv)`` so no fresh interpreter is paid per command. Every
trial's output is checked (checks.py); a failed check is counted, never
fatal.

Times are what a call would take on a reference host. On a shared 2-core
virtual machine, one pure-Python loop took anywhere from 1.1 to 2.1 ms in
stretches of several seconds, at times the host ran other guests for a
sixth of the wall time, and raw trial medians moved by 17-30% from run to
run. So each CLI call is timed by the process CPU time it uses,
which leaves out time the host gave to others (the program's file I/O goes
to the page cache and costs CPU, not waiting). A fixed probe loop runs,
untimed, before the first and after every CLI call of a trial, and each
call's CPU time is multiplied by ``(REF_PROBE_MS / mean of the probes on
either side) ** e``, where ``e`` is the workload's ``speed_exponent``
(workloads.py). Wall-clock values are printed beside the scaled ones and
kept in the results file.

``--trace 0`` measures for S seconds untraced and reports the end-to-end
metrics. ``--trace 1`` measures S/2 seconds untraced, then S/2 seconds with
the layer tracer installed (tracing.py), and reports the per-layer metrics;
``trace.overhead_ms`` is the traced minus the untraced median trial time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A summary with the
run's environment, and the spans of a traced run, go to perfbench/results/.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One thread runs the client and the program. OpenBLAS would otherwise keep a
# worker per core that spins after each call and steals the client's core;
# dstsim's hot paths make no BLAS calls. Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import workloads  # noqa: E402  (imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: Iterations of the host-speed probe loop, and the probe time that scaled
#: times refer to.
PROBE_LOOPS = 20000
REF_PROBE_MS = 1.0
#: Set-ups measured in fresh interpreters, besides the run's own; setup_s
#: is the median of all of them.
SETUP_PROBES = 2
#: fidelity_p50 is the median over the first trials of the run, which the
#: seed alone fixes.
FIDELITY_TRIALS = 10
#: Failure messages kept per phase for the report.
MAX_MESSAGES = 5

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trial_p50_ms", "ms", "lower"),
    ("trial_tail_ms", "ms", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("fidelity_p50", "ratio", "higher"),
)


def probe_ms() -> float:
    """The host's current speed: the fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(PROBE_LOOPS):
            acc += k * k
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def speed_factor(probe_before: float, probe_after: float, exponent: float) -> float:
    """What scales a time between two probes to the reference host speed."""
    return (2.0 * REF_PROBE_MS / (probe_before + probe_after)) ** exponent


class Setup:
    """One set-up: import dstsim, write the workload's config, run one warm-up trial.

    ``seconds`` is its wall time and ``scaled_s`` its CPU time scaled to the
    reference host speed.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        before = probe_ms()
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        sys.path.insert(0, SRC)
        from dstsim import cli
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"dstsim was imported from {cli.__file__}, not from {SRC}")
        self.cli = cli
        self.workload = workloads.WORKLOADS[workload](seed, workdir)
        warm = self.workload.trial(0)
        for argv in warm.prep + warm.argvs:
            self.main(argv)
        self.seconds = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        self.scaled_s = cpu_s * speed_factor(before, probe_ms(), self.workload.speed_exponent)

    def main(self, argv) -> int:
        """Run one CLI command in-process, with its output captured; return its exit code."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:          # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:                  # a crash fails the trial, not the run
                traceback.print_exc()
                rc = -1
        self.last_error = err.getvalue().strip()
        return rc


class Phase:
    """Trial times and outcomes of one measured phase."""

    def __init__(self):
        self.wall_ms: list[float] = []      # wall time of each timed trial
        self.scaled_ms: list[float] = []    # its time on the reference host
        self.fidelities: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.wall_s = 0.0


def command_name(argv) -> str:
    return f"holo_{argv[1]}" if argv[0] == "holo" else argv[0]


def run_trial(setup: Setup, trial, tracer) -> tuple[float, float, str | None]:
    """Time a trial's CLI calls; return its wall and scaled ms, and its failure if any."""
    wall = scaled = 0.0
    before = probe_ms()
    for argv in trial.argvs:
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        if tracer is None:
            rc = setup.main(argv)
        else:
            with tracer.span("cli." + command_name(argv)) as rec:
                rc = setup.main(argv)
        cpu_ms = (time.process_time() - cpu0) * 1e3
        wall += (time.perf_counter() - t0) * 1e3
        after = probe_ms()
        factor = speed_factor(before, after, setup.workload.speed_exponent)
        if tracer is not None:
            rec[6] = (rc, factor)
        scaled += cpu_ms * factor
        before = after
        if rc != 0:
            return wall, scaled, f"'{' '.join(argv[:2])}' exited {rc}: {setup.last_error}"
    return wall, scaled, None


def run_phase(setup: Setup, first: int, seconds: float, tracer=None) -> Phase:
    """Closed loop: make a trial's inputs, time its CLI calls, check its output, repeat."""
    phase = Phase()
    t_start = time.perf_counter()
    i = first
    while time.perf_counter() - t_start < seconds:
        trial = setup.workload.trial(i)
        phase.attempted += 1
        failure = None
        for argv in trial.prep:
            rc = setup.main(argv)
            if rc != 0:
                failure = f"input '{argv[0]}' exited {rc}: {setup.last_error}"
                break
        if failure is None:
            if tracer is not None:
                tracer.trial = i
            wall, scaled, failure = run_trial(setup, trial, tracer)
            if tracer is not None:
                tracer.trial = None
            phase.wall_ms.append(wall)
            phase.scaled_ms.append(scaled)
        if failure is None:
            try:
                outcome = trial.check()
            except (OSError, ValueError) as exc:
                failure = f"output unreadable: {exc}"
            else:
                if len(phase.fidelities) < FIDELITY_TRIALS:
                    phase.fidelities.append(outcome.fidelity)
                if not outcome.ok:
                    failure = f"check failed: {outcome.detail}"
        if failure is not None:
            phase.failed += 1
            if len(phase.messages) < MAX_MESSAGES:
                phase.messages.append(f"trial {i}: {failure}")
        i += 1
    phase.wall_s = time.perf_counter() - t_start
    return phase


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile of trial time with at least ten trials beyond it, and its rank.

    That is the 11th-slowest trial, at percentile 100 (n - 10) / n; with ten
    or fewer trials it is the slowest one.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall and scaled seconds of a set-up in a fresh interpreter, as a user starting it pays."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "commit": git_commit()}


def measure(args, workdir: str) -> tuple[dict, int, int, dict]:
    """Run the measured phases; return (metrics, attempted, failed, notes)."""
    setup = Setup(args.workload, args.seed, workdir)
    if not args.trace:
        setups = [(setup.seconds, setup.scaled_s)]
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        phase = run_phase(setup, 1, args.seconds)
        phases = [phase]
        n = len(phase.scaled_ms)
        tail_ms, tail_pct = tail(phase.scaled_ms)
        values = {
            "setup_s": statistics.median(s for _, s in setups),
            "trial_p50_ms": statistics.median(phase.scaled_ms),
            "trial_tail_ms": tail_ms,
            "trials_per_s": 1e3 * n / sum(phase.scaled_ms),
            "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fidelity_p50": statistics.median(phase.fidelities) if phase.fidelities else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        notes = {"trials": n, "tail_percentile": tail_pct, "setups": setups,
                 "wall": {"setup_s": statistics.median(r for r, _ in setups),
                          "trial_p50_ms": statistics.median(phase.wall_ms),
                          "trial_tail_ms": tail(phase.wall_ms)[0],
                          "trials_per_s": n / phase.wall_s}}
    else:
        import tracing
        plain = run_phase(setup, 1, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(setup, 1 + plain.attempted, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        untraced_p50 = statistics.median(plain.scaled_ms)
        traced_p50 = statistics.median(traced.scaled_ms)
        n = len(traced.scaled_ms)
        metrics = tracer.layer_metrics(n, traced_p50, traced_p50 - untraced_p50)
        notes = {"untraced_trials": len(plain.scaled_ms), "traced_trials": n,
                 "untraced_p50_ms": untraced_p50, "traced_p50_ms": traced_p50,
                 "span_coverage": tracer.self_sum_ms(n) / statistics.fmean(traced.scaled_ms),
                 "missing": tracer.missing}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"{args.workload}.spans.jsonl"))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    notes["failures"] = [m for p in phases for m in p.messages]
    return metrics, attempted, failed, notes


def report(args, metrics: dict, attempted: int, failed: int, notes: dict) -> None:
    env = environment(args)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} trials, {failed} failed; times scaled to a {REF_PROBE_MS:g} ms probe")
    print("env: " + ", ".join(f"{k} {env[k]}" for k in
                              ("python", "numpy", "scipy", "nproc", "commit")))
    wall = notes.get("wall", {})
    for name, m in metrics.items():
        raw = f"   (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{raw}")
    if "tail_percentile" in notes:
        print(f"  trial_tail_ms is p{notes['tail_percentile']:.1f} of {notes['trials']} trials")
    if "span_coverage" in notes:
        self_sum = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_ms"))
        print(f"  self times sum to {self_sum:.2f} ms = untraced p50 "
              f"{notes['untraced_p50_ms']:.2f} ms + trace.overhead_ms; the spans cover "
              f"{notes['span_coverage']:.2%} of the traced trials' time")
    for msg in notes["failures"]:
        print("  FAILED " + msg)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "attempted": attempted,
                   "failed": failed, "notes": notes}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                   help="the workload to run, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dstsim", "__init__.py")):
        print(f"error: no dstsim package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        try:
            if args.setup_probe:
                setup = Setup(args.workload, args.seed, workdir)
                print(setup.seconds, setup.scaled_s)
                return 0
            metrics, attempted, failed, notes = measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report(args, metrics, attempted, failed, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
