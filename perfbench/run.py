#!/usr/bin/env python3
"""Benchmark of dforge: one workload per process, run as a closed loop.

    python3 perfbench/run.py --workload cm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: cm, isogeny, orbits (see README.md); `all` runs each in its own
process, one after the other.  `certify` runs by name only: it is too
unsteady on a shared host to gate a change (README.md).  One caller and one
thread: each operation starts when the previous one has ended.  A run repeats whole
rounds of the workload's fixed batch for --seconds, checking every output
outside the timed region, and times each operation at its fastest round.
The program is imported from `src/` next to this directory.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with --trace 0 the end-to-end metrics

    setup_s      median over 7 fresh processes, spread over the run, of
                 the time from process start to the first timed operation
                 (import dforge, build the field tower, generate the
                 seeded inputs)
    wall_s       time of the workload's fixed batch: the sum over its
                 operations of each one's fastest time in the run
    op_p50_ms    median over the batch of each operation's fastest time
    peak_rss_mb  peak resident memory of the workload's process

and with --trace 1 the per-layer metrics of the second of two rounds (see
spans.py).
Per-run results and span traces are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cm", "isogeny", "orbits")
UNGATED = ("certify",)
SETUP_PROBES = 7
PROBE_TIMEOUT = 60


def _import_program():
    """Import dforge from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "dforge", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: no program at {init}")
    sys.path.insert(0, SRC)
    import dforge

    if os.path.abspath(dforge.__file__) != init:
        sys.exit(f"run.py: dforge imported from {dforge.__file__}, not {init}")


def _workload_module(name):
    if name in ("certify", "cm"):
        import wl_certify as mod
    elif name == "isogeny":
        import wl_isogeny as mod
    else:
        import wl_orbits as mod
    return mod


def _setup(mod, name, seed, workdir):
    if name == "isogeny":
        return mod.setup(name, seed, workdir)
    return mod.setup(name, seed)


def _probe_setup(name, seed):
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


class Tally:
    """Operations attempted and failed, and whether every answer was right.

    Every input of every workload has a known answer, so an operation that
    raises gave no valid answer: it counts as failed and makes `correct`
    false, as a wrong output does.
    """

    def __init__(self, mod):
        self.mod = mod
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []

    def record(self, case, outcome):
        self.attempted += 1
        if isinstance(outcome, Raised):
            exc = outcome.exc
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            reason = self.mod.check(case, outcome)
        if reason is None:
            return
        self.correct = False
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Raised:
    """An operation that raised: a failed operation, not a wrong answer."""

    def __init__(self, exc):
        self.exc = exc


def _calibrate():
    """Seconds taken by a fixed loop: the current speed of this CPU."""
    t0 = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i % 7
    return time.perf_counter() - t0


class CpuPicker:
    """Starts each operation on a CPU that currently runs at full speed.

    On a shared host the same code runs two times slower or more while the
    physical core under a vCPU is busy with other tenants; that flips within
    a second but can also last minutes.  Before an operation (at most every
    PICK_EVERY seconds) a fixed loop is timed on each CPU the process may
    use, and the process pins itself to the fastest.  While even that one is
    slower than QUIET times the best loop time seen in this run, it waits
    and tries again, for at most MAX_WAIT seconds.
    """

    PICK_EVERY = 0.05
    QUIET = 1.15
    MAX_WAIT = 0.5
    PROBE_WAIT = 2.0
    RETRY_SLEEP = 0.01

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, self.cpus)
        except (AttributeError, OSError):   # no affinity control here
            self.cpus = []
        self.best = float("inf")
        self.last = -1.0

    def _fastest(self):
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            elapsed = min(_calibrate(), _calibrate())
            if best is None or elapsed < best[0]:
                best = (elapsed, cpu)
        self.best = min(self.best, best[0])
        return best

    def pick(self, force=False, max_wait=MAX_WAIT):
        if not self.cpus:
            return
        start = time.perf_counter()
        if not force and start - self.last < self.PICK_EVERY:
            return
        elapsed, cpu = self._fastest()
        while (elapsed > self.QUIET * self.best
               and time.perf_counter() - start < max_wait):
            time.sleep(self.RETRY_SLEEP)
            elapsed, cpu = self._fastest()
        os.sched_setaffinity(0, {cpu})
        self.last = time.perf_counter()


def _round(mod, cases, op_times, picker=None):
    """Run every case once, appending each operation's seconds to
    op_times[i]; returns the outcomes."""
    run = mod.run
    clock = time.perf_counter
    outcomes = []
    for case, times in zip(cases, op_times):
        if picker is not None:
            picker.pick()
        t0 = clock()
        try:
            outcome = run(case)
        except Exception as exc:  # a failed operation, counted and reported
            outcome = Raised(exc.with_traceback(None))
        times.append(clock() - t0)
        outcomes.append(outcome)
    return outcomes


def _traced(name, seed, mod, cases, tally):
    """Two rounds with every layer wrapped; returns (metrics, note, op_times)
    of the second.  A cache that carries over between rounds shows as fewer
    calls in the second round than in the first."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    picker = CpuPicker()
    counts = []
    for _ in range(2):
        tracer.reset()
        op_times = [[] for _ in cases]
        for case, outcome in zip(cases, _round(mod, cases, op_times, picker)):
            tally.record(case, outcome)
        metrics = tracer.metrics()
        counts.append({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")})
    tracer.write(os.path.join(OUT, f"{name}-seed{seed}.spans.npz"))
    moved = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    note = (f"traced second round {sum(t[0] for t in op_times):.4f} s, "
            f"{len(tracer.names)} spans, {len(cases)} operations; calls that "
            f"differ from the first round: {', '.join(moved) or 'none'}")
    return metrics, note, op_times


def _timed(name, seed, seconds, mod, cases, tally):
    """Whole rounds for `seconds`, with set-up probes spread between them;
    returns (metrics, note, op_times)."""
    picker = CpuPicker()
    probes = []

    def probe():
        # a probe inherits the affinity: start it on a CPU at full speed
        picker.pick(force=True, max_wait=CpuPicker.PROBE_WAIT)
        probes.append(_probe_setup(name, seed))

    op_times = [[] for _ in cases]
    measured, rounds, last = 0.0, 0, 0.0
    # whole rounds only, and none that would end past the deadline
    while rounds == 0 or measured + last <= seconds:
        if len(probes) * seconds <= SETUP_PROBES * measured:
            probe()
        begin = time.perf_counter()
        outcomes = _round(mod, cases, op_times, picker)
        last = time.perf_counter() - begin
        measured += last
        rounds += 1
        for case, outcome in zip(cases, outcomes):
            tally.record(case, outcome)
    while len(probes) < SETUP_PROBES:
        probe()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = [min(times) for times in op_times]
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (statistics.median(best) * 1000.0, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    note = (f"{rounds} rounds of {len(cases)} operations, each operation timed "
            f"at its fastest of {rounds}; op_p50_ms over {len(cases)} "
            f"operations; setup_s median of {SETUP_PROBES} processes")
    return metrics, note, op_times


def run_workload(name, seed, seconds, trace):
    _import_program()
    mod = _workload_module(name)
    os.makedirs(OUT, exist_ok=True)
    tally = Tally(mod)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-jobs-") as workdir:
        cases = _setup(mod, name, seed, workdir)
        if trace:
            metrics, note, op_times = _traced(name, seed, mod, cases, tally)
        else:
            metrics, note, op_times = _timed(name, seed, seconds, mod, cases, tally)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, note=note,
                       op_times=op_times, reasons=tally.reasons), fh, indent=1)
    print(f"# {name} seed {seed}: {note}")
    for reason in tally.reasons:
        print(f"# failed: {reason}")
    if not trace:
        for key, (value, unit) in metrics.items():
            print(f"# {key} = {value:.6g} {unit}")
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run.py: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        _import_program()
        mod = _workload_module(args.workload)
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="probe-") as workdir:
            _setup(mod, args.workload, args.seed, workdir)
            print("ready", flush=True)
        return
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
