"""Runs one workload in a fresh process and prints its raw results as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  One
caller, no threads: each op starts after the previous one has ended (a closed
loop).

Untraced, it times whole passes of seeded ops until --seconds have passed and
at least MIN_OPS ops ran, then runs the workload's closing ops.  Each pass
runs in a child forked from the warm worker, one pass at a time, so that its
peak memory can be read on its own.  Traced, it
takes the first pass as a fixed op list and alternates an untraced and a
traced run of that list, each traced run followed by the closing ops, so
counts can be compared between traced passes and the difference of the two
medians is the tracing overhead.

Between passes, at SIDE_RUNS evenly spaced moments of the run, it launches
the set-up probe and (untraced) the cold replay as subprocesses, so that
their medians span the same stretch of time as the ops.

Untraced runs also time a fixed stdlib loop (`calibration_loop`) every
CALIBRATION_EVERY_S between ops.  On a shared host the speed of the same
code moved by up to 1.65x between runs of this benchmark, while the ratio of
op time to loop time varied about a third as much.  run.py reports end-to-end
times scaled by REFERENCE_CALIBRATION_S / (median loop time), that is, as
they would read on a host where the loop takes REFERENCE_CALIBRATION_S.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # so that at least ten samples lie beyond p90
HARD_CAP_S = 120.0
SIDE_RUNS = 9
CALIBRATION_EVERY_S = 0.25
# Median time of `calibration_loop` on the host the bounds were measured on
# (2-core x86-64 VM, CPython 3.11), where it ranged from 5.8 to 10.3 ms.
REFERENCE_CALIBRATION_S = 0.009
# Address-space limit of this process: a backstop so that no op can exhaust
# the machine's memory.  The time limit on `lp_feasible` usually stops
# Fourier-Motzkin long before it gets here.
ADDRESS_SPACE_LIMIT = 2 << 30
# Layers that cover-search must not touch.
COVER_ONLY_IDLE = ("games.", "eu.", "certificates.", "separation.")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_op(op: workloads.Op, tally: Tally,
           recorder: tracing.Recorder | None = None) -> tuple[float, bool]:
    """Run one op, then check it; returns its wall time in seconds and whether it passed.

    With a recorder, tracing is installed for `op.run` only, so the
    benchmark's own gate work never shows in the per-layer figures.
    """
    tally.attempted += 1
    if recorder is not None:
        recorder.op_id = tally.attempted
        recorder.install()
    error: str | None = None
    start = time.perf_counter()
    try:
        result = op.run()
    except workloads.OpTimeout:
        if not op.declared_limit:
            error = f"{op.label}: hit the time limit on an undeclared rung"
        else:
            error = ""  # failed as declared; not a correctness error
        if recorder is not None:
            recorder.counts["separation.timeouts"] += 1
            recorder.abandon_open_spans()
    except Exception as err:  # any program failure is a failed op, reported below
        error = f"{op.label}: {type(err).__name__}: {err}"
        if recorder is not None:
            recorder.abandon_open_spans()
    finally:
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.uninstall()
    if error is None:
        error = op.check(result)
    if error is None:
        return elapsed, True
    tally.failed += 1
    if error:
        tally.errors.append(error)
    return elapsed, False


def calibration_loop() -> float:
    """Seconds taken by fixed exact-arithmetic and dict work, independent of gamedim."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, 2 * i + 1)
    seen: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 1009
        seen[key] = seen.get(key, 0) + sum(1 for b in range(8) if i >> b & 1)
    return time.perf_counter() - start


class Calibration:
    """Samples `calibration_loop` at most every CALIBRATION_EVERY_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.samples.append(calibration_loop())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)


def run_pass(ops: list[workloads.Op], tally: Tally,
             calibration: Calibration) -> tuple[list[tuple[float, bool]], float]:
    """Run one pass of ops in a forked child; returns its (wall time, passed) pairs and peak RSS.

    The child starts from the worker's warm state, and its peak resident
    memory (in MB) covers this pass alone.  On separation-ladder about one
    instance in a hundred at n = 12 adds some 20 MB to the peak, so the
    peak of the whole process depends on whether the seed draws one; the
    median over passes does not.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            sub = Tally()
            first_sample = len(calibration.samples)
            timed = []
            for op in ops:
                calibration.maybe_sample()
                timed.append(run_op(op, sub))
            with os.fdopen(write_fd, "w") as out:
                json.dump({"timed": timed, "attempted": sub.attempted, "failed": sub.failed,
                           "errors": sub.errors,
                           "samples": calibration.samples[first_sample:],
                           "last_sample": calibration.last,
                           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024}, out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the process running a pass ended with status {status}")
    result = json.loads(data)
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.errors += result["errors"]
    calibration.samples += result["samples"]
    calibration.last = result["last_sample"]
    return [tuple(t) for t in result["timed"]], result["peak_rss_mb"]


class SideSamples:
    """Set-up probes and cold replays, each in a fresh interpreter."""

    def __init__(self, cold: bool, tally: Tally) -> None:
        self.cold = cold
        self.tally = tally
        self.expected = (HERE / "expected_verify.txt").read_bytes()
        self.setup: list[tuple[float, float, float, float]] = []
        self.cold_s: list[float] = []

    def take(self, keep: bool = True) -> None:
        launched = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        t = json.loads(proc.stdout)
        if keep:
            self.setup.append((t["ready"] - launched, t["started"] - launched,
                               t["imported"] - t["started"], t["ready"] - t["imported"]))
        if not self.cold:
            return
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gamedim.cli", "verify"],
                              capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if not keep:
            return
        self.cold_s.append(elapsed)
        self.tally.attempted += 1
        if proc.returncode != 0 or proc.stdout != self.expected:
            self.tally.failed += 1
            match = "matches" if proc.stdout == self.expected else "differs from"
            self.tally.errors.append(f"cold verify: exit code {proc.returncode}, stdout "
                                     f"{match} expected_verify.txt")

    def metrics(self) -> dict[str, float]:
        setup, startup, imported, built = (statistics.median(c) for c in zip(*self.setup))
        out = {"setup_s": setup, "python.startup_s": startup,
               "gamedim.import_s": imported, "eu.build_eu_game_s": built}
        if self.cold:
            out["verify_cold_s"] = statistics.median(self.cold_s)
        return out


def untraced(workload: str, stream, seconds: float, tally: Tally) -> dict:
    side = SideSamples(cold=True, tally=tally)
    side.take(keep=False)  # fills the bytecode cache
    ops = next(stream)
    run_op(ops[0], Tally())  # warm-up, not counted
    calibration = Calibration()
    timed: list[tuple[float, bool]] = []
    pass_peaks: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(side.setup) < SIDE_RUNS and elapsed >= len(side.setup) * seconds / SIDE_RUNS:
            side.take()
        pass_timed, peak = run_pass(ops, tally, calibration)
        timed += pass_timed
        pass_peaks.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(timed) >= MIN_OPS
                                     and len(side.setup) == SIDE_RUNS):
            break
        ops = next(stream)
    # Closing ops count as attempted (and, as declared, failed) but stay out
    # of the latencies: their time is set by the time limit, not the program.
    closing_s = [run_op(op, tally)[0] for op in workloads.closing_ops(workload)]
    while len(side.setup) < SIDE_RUNS:
        side.take()
    return {
        "latencies_s": [elapsed for elapsed, _ in timed],
        "completed": sum(ok for _, ok in timed),
        "closing_s": closing_s,
        "peak_rss_mb": statistics.median(pass_peaks),
        "passes": len(pass_peaks),
        "metrics": side.metrics(),
        "scale": calibration.scale(),
        "calibration_samples": len(calibration.samples),
    }


def traced(workload: str, stream, seconds: float, tally: Tally) -> dict:
    side = SideSamples(cold=False, tally=tally)
    side.take(keep=False)
    ops = next(stream)
    closing = workloads.closing_ops(workload)
    run_op(ops[0], Tally())  # warm-up, not counted
    plain: list[float] = []
    spanned: list[float] = []
    recorders: list[tracing.Recorder] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(side.setup) < SIDE_RUNS and elapsed >= len(side.setup) * seconds / SIDE_RUNS:
            side.take()
        plain += [run_op(op, tally)[0] for op in ops]
        recorder = tracing.Recorder()
        spanned += [run_op(op, tally, recorder)[0] for op in ops]
        for op in closing:
            run_op(op, tally, recorder)
        recorders.append(recorder)
        elapsed = time.perf_counter() - start
        if len(recorders) >= 2 and (elapsed >= seconds or elapsed >= HARD_CAP_S):
            break
    while len(side.setup) < SIDE_RUNS:
        side.take()

    counts = [r.snapshot() for r in recorders]
    if any(c != counts[0] for c in counts[1:]):
        tally.errors.append("traced counts differ between passes over the same ops")
    metrics: dict[str, float] = side.metrics()
    metrics.update(counts[0])
    if workload == "cover-search":
        busy = [k for k, v in counts[0].items() if v and k.startswith(COVER_ONLY_IDLE)]
        if busy:
            tally.errors.append(f"cover-search reached other layers: {', '.join(busy)}")

    own_sums: dict[str, float] = {}
    for recorder in recorders:
        for name, own_s in recorder.self_times().items():
            own_sums[name] = own_sums.get(name, 0.0) + own_s
    passes = len(recorders)
    metrics.update({f"{name}.self_s": own_s / passes for name, own_s in own_sums.items()})
    metrics["eu.self_s"] = sum(v for k, v in own_sums.items() if k.startswith("eu.")) / passes
    metrics["trace.overhead_ms"] = 1000 * (statistics.median(spanned) - statistics.median(plain))
    return {
        "metrics": metrics,
        "ops_per_pass": len(ops),
        "traced_passes": passes,
        "spans_per_pass": len(recorders[0].spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    expected = (HERE / "expected_verify.txt").read_bytes()
    stream = workloads.passes(args.workload, args.seed, expected)
    tally = Tally()
    measure = traced if args.trace else untraced
    out = measure(args.workload, stream, args.seconds, tally)
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
