"""Rounds of operations, their timing and the verdict on each output.

A workload is a fixed list of operations that one round runs in order,
closed loop with a single client: the next operation starts when the
previous one has returned.  Every round repeats the same operations on
the same inputs, so the share of failed operations is the same in every
run whatever its length.

An operation's outcome is one of three:

* success: the output passed its checks;
* a counted failure: the program raised, and the check names the fault;
* a wrong output: the program returned something the checks refuse.
  That makes the whole run incorrect.

Checks run outside the timed region.  An output identical to one
already checked (same digest) reuses that verdict, so later rounds do
not repeat expensive independent re-runs.

Times are taken at a reference machine speed.  The machine this runs
on is a share of a host whose speed swings by up to 2x, in bursts and
in stretches of minutes, and CPU time swings with it; no statistic of
one run sees past a slow stretch that outlasts it.  So fixed work that
does not touch mechlift (a speed probe) is timed before and after every
timed piece of work, and the piece's wall time is multiplied by the
probe's reference time over its mean time around the piece: what the
piece would take at the speed where the probe takes its reference
time.  A change to mechlift moves the scaled time as it moves the wall
time; a change in the machine's speed moves the probe too and cancels.

The probe has to slow as the piece does.  Work in this process is read
by ``speed_loop``; work in a child process by a fresh interpreter that
imports numpy and scipy.linalg, since process start and imports slow
less than compute does (a fresh ``import mechlift`` about 1.25x where
``speed_loop`` slows 1.7x).
"""

import hashlib
import math
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

SPEED_LOOP_ITERS = 40
CHILD_PROBE_CODE = "import numpy, scipy.linalg"
# bound here, before a traced run wraps numpy.linalg.solve, so that the
# loop never shows in the trace
_solve = np.linalg.solve
_M = np.array([[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 0.5, 0.0],
               [0.0, 0.5, 2.0, 1.0], [0.5, 0.0, 1.0, 5.0]])


class WrongOutput(Exception):
    """The program returned an output that fails its check."""


class Op:
    """One operation of a round.

    ``run`` calls into the program and returns its output.  ``verify``
    gets (output, exception) and returns None on success or a string
    naming the fault for a counted failure; it raises WrongOutput for an
    incorrect output.  ``key`` pools the timings of operations that are
    repeats of one another.  ``units`` is the work the operation does
    (steps, points, samples), for the throughput lines.  A ``segmented``
    operation's ``run`` takes the meter's ``timed`` and passes each of
    its pieces of work through it; otherwise the whole call is timed.
    """

    def __init__(self, name, run, verify, digest, key=None, units=0, group="",
                 segmented=False):
        self.name = name
        self.run = run
        self.verify = verify
        self.digest = digest
        self.key = key or name
        self.units = units
        self.group = group
        self.segmented = segmented


def speed_loop():
    """Fixed work in the style of mechlift's hot path: small dense solves,
    small array arithmetic and Python-level calls.  Never calls mechlift."""
    v = np.ones(4)
    total = 0.0
    for i in range(SPEED_LOOP_ITERS):
        v = _solve(_M, v + math.sin(i))
        w = np.concatenate([v[:2], v[2:]]) @ _M
        total += float(w.sum())
        total += sum([x * 0.5 for x in range(8)])
    return total


class SpeedMeter:
    """Wall time and reference-speed time of the pieces of work it times.

    This meter's probe is ``speed_loop``, for work in this process.
    ``reference_s`` is the probe's time at the reference speed: about
    its time on a 2-vCPU Intel Xeon share in a quiet stretch of the host
    (see README.md).  A read is the median of ``reads`` probes; one older
    than ``max_age_s`` no longer describes the next piece of work.
    """

    reference_s = 0.5e-3
    reads = 5
    max_age_s = 0.05

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._read()

    def probe(self):
        speed_loop()

    def _read(self):
        samples = []
        for _ in range(self.reads):
            start = time.perf_counter()
            self.probe()
            samples.append(time.perf_counter() - start)
        self.last = statistics.median(samples)
        self.last_at = time.perf_counter()
        return self.last

    def timed(self, fn):
        """Call ``fn`` and add its wall time and its scaled time to the totals."""
        if time.perf_counter() - self.last_at > self.max_age_s:
            self._read()
        before = self.last
        start = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - start
            self.raw += wall
            self.scaled += wall * self.reference_s / (0.5 * (before + self._read()))


class ChildSpeedMeter(SpeedMeter):
    """A meter for work done in child processes, each started with ``env``.

    Its probe is a fresh interpreter running ``CHILD_PROBE_CODE``.
    """

    reference_s = 0.4
    reads = 1
    max_age_s = 2.0

    def __init__(self, env):
        self.env = env
        super().__init__()

    def probe(self):
        subprocess.run([sys.executable, "-c", CHILD_PROBE_CODE], env=self.env,
                       capture_output=True, check=True, timeout=60)


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _within(context, fn):
    with context:
        return fn()


class Measurement:
    """Timings and outcomes of the rounds of one run."""

    def __init__(self, ops, meter):
        self.ops = ops
        self.meter = meter
        # reference-speed times; raw_times are the wall times as measured
        self.times = {op.key: [] for op in ops}
        self.raw_times = {op.key: [] for op in ops}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.round_walls = []
        self.wrong = []
        self._verdicts = {}

    def _outcome(self, op, output, exc):
        fingerprint = (op.name, op.digest(output, exc))
        if fingerprint not in self._verdicts:
            try:
                self._verdicts[fingerprint] = op.verify(output, exc)
            except WrongOutput as err:
                self.wrong.append(str(err))
                self._verdicts[fingerprint] = None
        return self._verdicts[fingerprint]

    def run_round(self, tracer=None, after_round=None):
        outputs = {}
        wall = 0.0
        for op in self.ops:
            context = tracer.op(op.name) if tracer else nullcontext()
            raw, scaled = self.meter.raw, self.meter.scaled
            try:
                if op.segmented:
                    output = _within(context, lambda: op.run(self.meter.timed))
                else:
                    output = self.meter.timed(lambda: _within(context, op.run))
                exc = None
            except Exception as err:  # the program's failure is the operation's outcome
                output, exc = None, err
            self.times[op.key].append(self.meter.scaled - scaled)
            self.raw_times[op.key].append(self.meter.raw - raw)
            wall += self.meter.scaled - scaled
            fault = self._outcome(op, output, exc)
            self.attempted += 1
            if fault is not None:
                self.failed += 1
                self.faults[op.name] = fault
            outputs[op.name] = output
        if after_round:
            after_round(outputs)
        self.rounds += 1
        self.round_walls.append(wall)
        return wall

    def run_for(self, seconds, after_round=None):
        """Whole rounds while the next one is expected to end within ``seconds``."""
        start = time.perf_counter()
        while True:
            self.run_round(after_round=after_round)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / self.rounds > seconds:
                return

    def median(self, key, raw=False):
        return statistics.median((self.raw_times if raw else self.times)[key])

    def round_s(self, raw=False):
        """A round's time with each operation at its median over the run."""
        return sum(self.median(op.key, raw) for op in self.ops)

    def rate(self, group):
        ops = [op for op in self.ops if op.group == group]
        return sum(op.units for op in ops) / sum(self.median(op.key) for op in ops)

